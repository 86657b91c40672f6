"""Seeded sweep configurations for the three benchmark workloads.

Every workload has a fixed shape (sweep count, member count, step counts,
resolutions) and draws only the physical parameters from the seed, so two
seeds cost about the same while exercising different inputs.  The program
under test sees nothing but the sweep configs returned here.

Uses only the standard library, so the set-up measurement times the
program's import and validation, not this module's.
"""

from __future__ import annotations

import math
import random

#: -1/(3 sqrt 3): the smallest admissible mass for curvature sign -1.
M_CRIT = -1.0 / (3.0 * math.sqrt(3.0))

WORKLOADS = ("flow-long", "compare", "aspect")

#: Trajectory length of every flow-long member.
FLOW_STEPS = 4096


def _strata(lo_exp: float, hi_exp: float, per_decade: int) -> list[tuple[float, float]]:
    n = round((hi_exp - lo_exp) * per_decade)
    return [(10.0 ** (lo_exp + k / per_decade), 10.0 ** (lo_exp + (k + 1) / per_decade))
            for k in range(n)]


#: delta = m - M_CRIT for static-compare: half-decade strata from 1e-11 to
#: 1e-1, plus one stratum up to the top of its interval (m = 0).
_SC_STRATA = _strata(-11, -1, 2) + [(0.1, -M_CRIT)]
#: delta for kottler and penrose: the admissible interval up to m = 10, in
#: half-decade strata below delta = 1e-6 and eighth-decade strata above.
#: The many cheap members above 1e-6 put the median member latency inside
#: one cluster (passing kottler members) rather than on the edge between
#: clusters, where it would jump from seed to seed.
_WIDE_STRATA = _strata(-11, -6, 2) + _strata(-6, 1, 8)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _flow_long(rng):
    # Each sweep flows one start surface both a short way (final radius
    # 5-15 times r0) and a long way (final radius 2e3-8e3).  The long flows
    # end where the program's absolute rate_matches_difference tolerance
    # (1e-8) is below the rounding of the Geroch rate, which grows like r^3,
    # so every seed has the same share of members that fail that check.
    sweeps = []
    for k_hat, genus in ((1, 0), (0, 1), (-1, rng.choice((2, 3, 4)))):
        m_lo = 0.5 * M_CRIT if k_hat == -1 else 0.01
        r0 = rng.uniform(4.0, 8.0)
        t_short = 2.0 * math.log(rng.uniform(5.0, 15.0))
        t_long = 2.0 * math.log(rng.uniform(2e3, 8e3) / r0)
        base = {"kind": "flow", "k_hat": k_hat, "genus": genus,
                "m": rng.uniform(m_lo, 1.5), "r0": r0, "t_max": t_short,
                "steps": FLOW_STEPS}
        sweeps.append({"kind": "sweep", "base": base,
                       "vary": {"t_max": [t_short, t_long],
                                "eps": [0.0, rng.uniform(0.02, 0.2)]}})
    return sweeps


def stratified_masses(rng, strata) -> list[float]:
    """One mass per delta stratum, log-uniform inside it."""
    return [M_CRIT + _log_uniform(rng, lo, hi) for lo, hi in strata]


def _compare(rng):
    sweeps = []
    for genus in (2, 3, 4):
        near = [min(0.0, m) for m in stratified_masses(rng, _SC_STRATA)]
        wide = stratified_masses(rng, _WIDE_STRATA)
        sweeps.append({"kind": "sweep",
                       "base": {"kind": "static-compare", "genus": genus,
                                "m": near[0]},
                       "vary": {"m": near}})
        # 200 profile radii keep a kottler member's latency mostly compute,
        # not artifact writes, so the median member latency, which falls
        # among these members, follows the rescaled machine speed
        sweeps.append({"kind": "sweep",
                       "base": {"kind": "kottler", "k_hat": -1,
                                "genus": genus, "m": wide[0], "n_radii": 200},
                       "vary": {"m": wide}})
        sweeps.append({"kind": "sweep",
                       "base": {"kind": "penrose", "genus": genus,
                                "masses": wide},
                       "vary": {"genus": [genus]}})
    return sweeps


def _aspect(rng):
    sweeps = []
    for k_hat in (-1, 0, 1):
        # one short map (3-4 decades) and one long map (6-7 decades) per
        # k_hat: the solve_ivp cost grows with the decades covered
        for decades in ((3.0, 4.0), (6.0, 7.0)):
            m_lo = M_CRIT if k_hat == -1 else 0.0
            m = rng.uniform(m_lo, 2.0)
            r_start = rng.uniform(2.0, 10.0)
            r_end = r_start * 10.0 ** rng.uniform(*decades)
            base = {"kind": "mass-aspect", "k_hat": k_hat, "m": m,
                    "r_start": r_start, "r_end": r_end}
            sweeps.append({"kind": "sweep", "base": base,
                           "vary": {"nodes_per_decade": [192, 384, 768],
                                    "eps": [0.0, rng.uniform(0.01, 0.5)]}})
    return sweeps


_BUILDERS = {"flow-long": _flow_long, "compare": _compare, "aspect": _aspect}


def generate(workload: str, seed: int) -> list[dict]:
    """The sweep configs of one workload; the same seed gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {list(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))

