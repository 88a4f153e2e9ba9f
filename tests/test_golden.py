"""Golden results: every CLI command on the shipped configs at a tiny size.

The pinned figures were produced by the code before the reflected-value
kernel was shared between estimators, solver and checks; that refactor is
bit-preserving, so they must match to rounding.  A deliberate change of the
per-path stream contract updates them on purpose.

Re-pinned when the solver's stderr became a batch-means one (fixed path
batches, no pilot): the solver's ``ci_halfwidth`` and ``rho_stderr`` for
``solve`` and every ``perturb`` level, plus the figures that move at rounding
level because the per-batch chunks change summation order and matvec row
counts: each ``perturb`` level's ``rho_mean`` (a near-cancelling pooled
histogram sum, <= 1e-14 absolute) and the ``verify`` convexity statistic
(5e-17 absolute).  Every ``b_star`` and every other figure was unchanged to
rel 1e-12.

Re-pinned when the exp-clock rho stopped drawing a clock and a second set
of paths and integrated the clock out on the grid paths instead: only
``rho_exp_clock``, whose sample is a new one.  Old -> new at b = -2.0:
mean -5.826058238647674 -> -5.554555784839931, stderr 0.3676664364646955 ->
0.2318208299745246 (every point moves by the same mean shift, +0.2715; the
quadratic cost makes the curve a straight line in b either way).

Re-pinned when the pooled histogram's rho-hat became a fixed-order sum (a
BLAS dot over that many bins is threaded, so its bits followed
OPENBLAS_NUM_THREADS): the last ``perturb`` level's ``rho_mean``, a
near-cancelling sum, -0.0010940823676591181 -> -0.0010940823676578448
(1.3e-15 absolute).  Every other figure held at rel 1e-12.

Re-pinned once for stream contract 2 (``path_engine.ENGINE_VERSION``): a
path now draws one Poisson count of jumps over its whole horizon, then
their uniform times, then their sizes, where contract 1 drew one count per
grid cell.  Every case on a jump config (all but the ``bm_*`` ones) holds a
new sample, so each of its figures moved within its noise; the old -> new
figures are listed in CHANGES.md.  The ``bm_*`` cases are sigma-only, were
pinned under contract 1 and hold unchanged: Gaussian paths are the same
under both contracts.

Re-pinned once for stream contract 3, when ``perturb`` stopped simulating
grid paths: each path draws its jump skeleton up to an exponential clock (K
Exp(1) gaps, then K sizes) and every eps level reads the exact supremum at
the clock off it, so ``perturb`` holds a new sample and no longer depends
on ``--dt``; the old -> new figures are listed in CHANGES.md.  Every other
case runs the grid and is unchanged.

Re-pinned once for stream contract 4, when the CLI's ``rho`` stopped
simulating grid paths: it reads both of its methods exactly off the clock
skeleton, which with sigma > 0 draws K more Exp(1) per path (Wiener-Hopf
Monte Carlo).  Only ``rho``, ``rho_exp_clock`` and ``bm_rho_exp_clock`` hold
new samples, and none depends on ``--dt`` any more; the old -> new figures
are listed in CHANGES.md.  Every other case, ``perturb`` included, holds at
rel 1e-12.

Re-pinned once for stream contract 5, when each clock-skeleton path took
one block of uniforms and every family its sizes by an inverse transform of
them (``JumpSpec.from_uniforms``), with no zero redraw.  Only the five
skeleton cases (``rho``, ``rho_exp_clock``, ``perturb``, ``bm_rho_exp_clock``
and ``piecewise_rho``) hold new samples; the old -> new figures are listed in
CHANGES.md.  Every grid case holds at rel 1e-12.

Re-pinned once for stream contract 6, when the grid's jump sizes became
``JumpSpec.from_uniforms`` of K m uniforms u = 1 - U drawn after the jump
times (m = ``uniforms_per_size``), the one transform the skeleton uses,
with no zero redraw.  Only the nine grid cases on a jump config (``solve``,
``value``, ``value_x``, ``sweep``, ``sweep_x``, ``verify``,
``quartic_solve``, ``mollified_abs_solve`` and ``mollified_quartic_sweep``)
hold new samples; the old -> new figures are listed in CHANGES.md.  The
``bm_*`` cases and the five skeleton cases hold at rel 1e-12.

Stream contract 7 (the skeleton's blocks became rows of a randomly shifted
lattice, point p // 64 plus shift p mod 64) re-pinned nothing: at 64 paths
every row takes lattice point 0, which is 0, so each block is its contract-6
block bit for bit, and with one row per replicate the replicate stderr is the
per-path one.  Every case holds at rel 1e-12; only the fingerprints, which
these figures do not include, moved with ``ENGINE_VERSION``.

Re-pinned when the shared check pass stopped reflecting starts below their
barrier and read each off the at-barrier pair plus C (b - x): only the
``verify`` convexity statistic, its floor-dominated worst violation,
-2.1819381686349546e-09 -> -2.18193808831131e-09 (8.0e-17 absolute), which
moves with the rounding of the values below b*.  Every other figure, the
``verify`` ones included, held at rel 1e-12.

``value_x`` and ``sweep_x`` start away from 0 (x = 0.3 and x = -0.4); they
were pinned before every start became an offset of one pass from 0, and
hold through it at rel 1e-12.

The four cost-family cases (``quartic_solve``, ``mollified_abs_solve``,
``piecewise_rho`` and ``mollified_quartic_sweep``) run the Kou config with a
cost other than the shipped quadratic.  They were pinned before each builtin
cost family moved into one class, which is bit-preserving.
"""
import json
from pathlib import Path

import pytest

from levybarrier.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
KOU = CONFIGS / "kou_two_sided.json"
CP = CONFIGS / "compound_poisson.json"
ALL_CHECKS = '["barrier_derivative","slope_identity","convexity","martingale","hjb"]'
TINY = ["--paths", "64", "--dt", "0.01"]
BM = {  # sigma only: its paths are Gaussian draws, whatever the jump draws do
    "model": {"gamma": 0.0, "sigma": 1.0},
    "problem": {"cost": {"kind": "quadratic"}, "C": 1.0, "q": 0.5},
    "sim": {"dt": 0.01, "n_paths": 64, "master_seed": 7},
    "solve": {"bisect_tol": 0.001},
    "value": {"x": 0.0, "b": -1.25},
    "rho": {"b_grid": [-1.5, -1.25, -1.0], "method": "exp_clock"},
}

RUNS = {
    "solve": ("solve", KOU, []),
    "value": ("value", KOU, []),
    "value_x": ("value", KOU, ["--set", "value.x=0.3"]),
    "rho": ("rho", KOU, []),
    "rho_exp_clock": ("rho", KOU, ["--set", "rho.method=exp_clock"]),
    "sweep": ("sweep", KOU, []),
    "sweep_x": ("sweep", KOU, ["--set", "sweep.x=-0.4"]),
    "verify": ("verify", KOU, ["--set", "verify.checks=" + ALL_CHECKS]),
    "perturb": ("perturb", CP, []),
    "bm_solve": ("solve", BM, []),
    "bm_value": ("value", BM, []),
    "bm_rho_exp_clock": ("rho", BM, []),
    "quartic_solve": ("solve", KOU, ["--set", "problem.cost.kind=quartic"]),
    "mollified_abs_solve": ("solve", KOU, ["--set", "problem.cost.kind=abs", "--set", "problem.mollify.epsilon=0.2"]),
    "piecewise_rho": ("rho", KOU, ["--set", 'problem.cost={"kind": "piecewise_linear", '
                                           '"slopes": [-1.0, 0.5, 2.0], "kinks": [-0.5, 0.5]}']),
    "mollified_quartic_sweep": ("sweep", KOU, ["--set", "problem.cost.kind=quartic",
                                               "--set", "problem.mollify.epsilon=0.2"]),
}


def _solve_figures(rec):
    return {
        "b_star": rec["b_star"],
        "ci_halfwidth": rec["ci_halfwidth"],
        "rho_mean": rec["rho_at_b_star"]["mean"],
        "rho_stderr": rec["rho_at_b_star"]["stderr"],
    }


def _curve(records):
    return [[r["b"], r["mean"], r["stderr"]] for r in records]


def figures(command, result):
    """The pinned numbers of one run's result.json payload."""
    res = result["result"]
    if command == "solve":
        return _solve_figures(res["solve"])
    if command == "value":
        return {k: [res["value"][k]["mean"], res["value"][k]["stderr"]] for k in ("v", "v1", "v2")}
    if command in ("rho", "sweep"):
        return _curve(res[command])
    if command == "verify":
        out = {r["name"]: [r["statistic"], r["tolerance"]] for r in res["verify"]}
        out["b_star"] = res["b_star"]
        return out
    if command == "perturb":
        return {
            "b_star": res["perturb"]["b_star"],
            "levels": [[eps, _solve_figures(rec)] for eps, rec in res["perturb"]["eps_sequence"]],
        }
    raise KeyError(command)


def _leaves(obj, path=""):
    """Flat {path: number} view of nested lists and dicts."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {path: obj}
    out = {}
    for key, val in items:
        out.update(_leaves(val, f"{path}/{key}"))
    return out


def run_figures(name, out_dir):
    command, config, extra = RUNS[name]
    if isinstance(config, dict):
        path = out_dir / "config.json"
        path.write_text(json.dumps(config))
        config = path
    argv = [command, "--config", str(config), "--out", str(out_dir)] + TINY + extra
    assert main(argv) == 0
    return figures(command, json.loads((out_dir / "result.json").read_text()))


PINNED = {"solve": {"b_star": -0.63720703125,
                    "ci_halfwidth": 0.02998969591267692,
                    "rho_mean": -0.49964022727707047,
                    "rho_stderr": 0.12024696053664743},
          "value": {"v": [0.8595429349872233, 0.09488334645137117],
                    "v1": [0.7661605843381557, 0.09645973880191239],
                    "v2": [0.18676470129813527, 0.02963933976113036]},
          "value_x": {"v": [1.1258610922745882, 0.13950898507538512],
                      "v1": [1.067783634033519, 0.1421253656924117],
                      "v2": [0.11615491648213815, 0.021397864835017197]},
          "rho": [[-2.0, -5.2695945755879325, 0.21737053732970116],
                  [-1.5, -3.2695945755879325, 0.21737053732970113],
                  [-1.0, -1.2695945755879325, 0.21737053732970116],
                  [-0.5, 0.7304054244120675, 0.21737053732970113],
                  [0.0, 2.7304054244120675, 0.21737053732970113],
                  [0.5, 4.7304054244120675, 0.2173705373297011],
                  [1.0, 6.7304054244120675, 0.2173705373297011]],
          "rho_exp_clock": [[-2.0, -5.434581349424653, 0.23149695685487243],
                            [-1.5, -3.4345813494246533, 0.23149695685487243],
                            [-1.0, -1.4345813494246533, 0.23149695685487243],
                            [-0.5, 0.5654186505753467, 0.23149695685487243],
                            [0.0, 2.5654186505753467, 0.23149695685487245],
                            [0.5, 4.565418650575346, 0.2314969568548724],
                            [1.0, 6.565418650575347, 0.23149695685487245]],
          "sweep": [[-1.6, 1.0841242152138548, 0.10490785853183955],
                    [-1.4, 1.0129126877937058, 0.09887659386758829],
                    [-1.2, 0.9461489003093555, 0.09531485351169734],
                    [-1.0, 0.8912927297009976, 0.09419481772188446],
                    [-0.8, 0.8595429349872233, 0.09488334645137117],
                    [-0.6, 0.8622672340578792, 0.09687190385805348],
                    [-0.4, 0.9237243646326276, 0.09901757012309417],
                    [-0.2, 1.0898449145987623, 0.10129843987552223],
                    [0.0, 1.4275803098143254, 0.11192266993248577]],
          "sweep_x": [[-1.6, 1.2561060126379506, 0.09873102224701213],
                      [-1.4, 1.1418671853447158, 0.08245055415038754],
                      [-1.2, 1.0295988765766926, 0.0696282642254194],
                      [-1.0, 0.9270287492667727, 0.062251573728651095],
                      [-0.8, 0.8516402452520058, 0.060048719594797774],
                      [-0.6, 0.8349682319616707, 0.06198051834301871],
                      [-0.4, 0.9262246126237145, 0.0724449987607041],
                      [-0.2, 1.1967102772857254, 0.09115431936561531],
                      [0.0, 1.6275803098143253, 0.11192266993248577]],
          "verify": {"barrier_derivative": [0.09369202042755491, 0.29448797374252356],
                     "slope_identity": [0.07639073942094265, 0.1615065906416634],
                     "convexity": [-2.18193808831131e-09, 0.0],
                     "martingale": [-0.345399059358777, 8.912202789355865],
                     "hjb": [-4.970212346212798, 0.0],
                     "b_star": -0.63720703125},
          "perturb": {"b_star": -0.50341796875,
                      "levels": [[0.2,
                                  {"b_star": -0.42236328125,
                                   "ci_halfwidth": 0.05738712231721232,
                                   "rho_mean": 0.0016178838787229838,
                                   "rho_stderr": 0.2295484892688489}],
                                 [0.1,
                                  {"b_star": -0.46826171875,
                                   "ci_halfwidth": 0.0610895578628858,
                                   "rho_mean": 0.001184911889161963,
                                   "rho_stderr": 0.2443582314515438}],
                                 [0.05,
                                  {"b_star": -0.49169921875,
                                   "ci_halfwidth": 0.06310111107977803,
                                   "rho_mean": 0.0015860522820572154,
                                   "rho_stderr": 0.2524044443191123}],
                                 [0.025,
                                  {"b_star": -0.50341796875,
                                   "ci_halfwidth": 0.0641489039947419,
                                   "rho_mean": 0.0017957632773585447,
                                   "rho_stderr": 0.25659561597896763}]]},
          "bm_solve": {"b_star": -1.14990234375,
                       "ci_halfwidth": 0.06356889805147638,
                       "rho_mean": -1.0005834131184421,
                       "rho_stderr": 0.2548864382490403},
          "bm_value": {"v": [2.719368918990998, 0.37553232834003525],
                       "v1": [2.445331039473273, 0.38546493993456415],
                       "v2": [0.27403787951772546, 0.04933173334884561]},
          "bm_rho_exp_clock": [[-1.5, -2.010411728768128, 0.5447070065859703],
                               [-1.25, -1.0104117287681276, 0.5447070065859703],
                               [-1.0, -0.01041172876812764, 0.5447070065859703]],
          "quartic_solve": {"b_star": -0.87841796875,
                            "ci_halfwidth": 0.036590215123763564,
                            "rho_mean": -0.4974209179865285,
                            "rho_stderr": 0.38044585147453824},
          "mollified_abs_solve": {"b_star": -0.29833984375,
                                  "ci_halfwidth": 0.035911576248463334,
                                  "rho_mean": -0.4986574533715625,
                                  "rho_stderr": 0.10294558333552456},
          "piecewise_rho": [[-2.0, -1.5109346990487804, 0.09504554205701847],
                            [-1.5, -1.1174970812924494, 0.11991644165638894],
                            [-1.0, -0.2728795593208424, 0.14626459865927552],
                            [-0.5, 1.699020465226123, 0.08912585995755101],
                            [0.0, 2.341727939892028, 0.09620852314576729],
                            [0.5, 4.000000000000001, 0.0],
                            [1.0, 4.000000000000001, 0.0]],
          "mollified_quartic_sweep": [[-1.6, 2.427082166412421, 0.30788246573414957],
                                      [-1.4, 2.0355011022191887, 0.26772846405924555],
                                      [-1.2, 1.7378119219366277, 0.25384199633679255],
                                      [-1.0, 1.5528494170937965, 0.26686354530015305],
                                      [-0.8, 1.4824532539496258, 0.29583428923320293],
                                      [-0.6, 1.5419044425539026, 0.33859359185688054],
                                      [-0.4, 1.7597084779522443, 0.39835214045538164],
                                      [-0.2, 2.1773317590223513, 0.4779643619231255],
                                      [0.0, 2.946777715579283, 0.6021807935322139]]}


@pytest.mark.parametrize("name", list(RUNS))
def test_cli_results_match_pinned(name, tmp_path):
    got = _leaves(run_figures(name, tmp_path))
    want = _leaves(PINNED[name])
    assert got.keys() == want.keys()
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
