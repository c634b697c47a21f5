"""The built-in scenario catalog: classic, randomized, adversarial.

Every scenario is a :class:`~repro.scenarios.spec.ScenarioSpec` whose
expectations are *closed forms derived right here*, by hand, from the
scenario's own declared parameters — textbook queueing formulas and the
paper's affine NC formulas written out literally.  The scenario runner
then recomputes the same quantities through :mod:`repro.streaming`,
:mod:`repro.nc` and :mod:`repro.queueing` and requires agreement under
the :mod:`repro.nc.tolerance` EPS policy.  Agreement is meaningful
because the two sides share no code: a normalization bug, a curve-op
regression or a queueing-formula typo breaks a scenario.

Families
--------
``classic``
    queueing sanity scenarios with known closed forms: single and
    tandem rate-latency chains (the affine ``d = T + b/R`` family),
    M/M/1 stations at several utilizations, an M/G/1
    (Pollaczek-Khinchine) station matching the simulator's uniform
    service, tandem backlog via Little's law, and roofline stability
    edges — cross-checked against :mod:`repro.queueing`;
``randomized``
    seed-deterministic stable pipelines (depth, rates, job sizes and
    volume-ratio chains drawn from per-scenario ``SeedSequence``
    streams) whose throughput floor and effective burst are re-derived
    independently of the normalization layer;
``adversarial``
    the cases that break naive models: exact and near saturation
    (``rho -> 1``), a slightly unstable chain (transient estimates),
    multi-MiB bursty leaky-bucket sources, a deep job-ratio aggregation
    chain (every stage pays collection latency), an ``l_max``-dominated
    packetized stage, heavy-tailed parameter draws (bounded Pareto job
    sizes, lognormal rates), and a compression/expansion job-ratio
    chain exercising input-referred normalization;
``multiflow``
    multi-tenant residual service (the cluster tier's admission math):
    k leaky-bucket tenants share one rate-latency server; a scenario
    models one tenant's view as a single stage with the *blind
    residual* service curve ``[beta - sum_j alpha_j]^+`` (rate
    ``R - sum R_j``, latency ``(T R + sum b_j)/(R - sum R_j)``), or the
    aggregate view ``sum_i alpha_i`` through the full beta — and the
    expectations are computed through :mod:`repro.nc.multiflow` curve
    algebra, a code path the streaming normalization layer never
    touches.
"""

from __future__ import annotations

import math
from typing import Any

from ..nc.bounds import backlog_bound, delay_bound
from ..nc.builders import leaky_bucket, rate_latency
from ..nc.multiflow import aggregate_arrival, blind_residual
from ..units import KiB, MiB
from .spec import Expectations, ScenarioSpec

__all__ = [
    "classic_scenarios",
    "randomized_scenarios",
    "adversarial_scenarios",
    "multiflow_scenarios",
    "catalog",
    "quick_catalog",
]


# --------------------------------------------------------------------- #
# document helpers
# --------------------------------------------------------------------- #


def _stage(
    name: str,
    rate: float,
    *,
    min_rate: float | None = None,
    max_rate: float | None = None,
    latency: float = 0.0,
    job: float = 1.0,
    ratio: float | None = None,
    kind: str = "compute",
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "name": name,
        "avg_rate": rate,
        "min_rate": min_rate if min_rate is not None else rate,
        "max_rate": max_rate if max_rate is not None else rate,
        "latency": latency,
        "job_bytes": job,
        "kind": kind,
    }
    if ratio is not None:
        doc["volume_ratio"] = {"best": ratio, "avg": ratio, "worst": ratio}
    return doc


def _doc(
    name: str,
    source_rate: float,
    stages: list[dict[str, Any]],
    *,
    burst: float = 0.0,
    packet: float = 64 * KiB,
) -> dict[str, Any]:
    return {
        "name": name,
        "source": {"rate": source_rate, "burst": burst, "packet_bytes": packet},
        "stages": stages,
    }


# --------------------------------------------------------------------- #
# classic family
# --------------------------------------------------------------------- #


def classic_scenarios() -> list[ScenarioSpec]:
    """Queueing sanity scenarios with hand-derived closed forms."""
    out: list[ScenarioSpec] = []

    # -- single rate-latency node, burst covers the job (no collection) --
    r_a, b, r_s, t, j = 100 * MiB, 1 * MiB, 200 * MiB, 2e-3, 256 * KiB
    out.append(ScenarioSpec(
        name="classic-single-rl",
        family="classic",
        description="one rate-latency stage, source burst covers the job: "
        "d = T + b/R, x = b + R_a*T",
        pipeline=_doc("classic-single-rl", r_a,
                      [_stage("node", r_s, latency=t, job=j)], burst=b),
        workload=8 * MiB,
        expect=Expectations(
            stable=True, conformance=True,
            total_latency=t,                      # b >= job: collection skipped
            effective_burst=b,
            delay_bound=t + b / r_s,
            backlog_bound=b + r_a * t,
            throughput_lower_bound=r_a,
            throughput_upper_bound=r_a,
            queueing_prediction=r_a,
        ),
    ))

    # -- single node that must collect its job before dispatch ----------
    r_a, r_s, t, j = 64 * MiB, 160 * MiB, 1e-3, 256 * KiB
    t_tot = j / r_a + t
    out.append(ScenarioSpec(
        name="classic-single-collect",
        family="classic",
        description="zero source burst: the job-ratio recursion charges "
        "collection time b_n/R_alpha",
        pipeline=_doc("classic-single-collect", r_a,
                      [_stage("node", r_s, latency=t, job=j)]),
        workload=8 * MiB,
        expect=Expectations(
            stable=True, conformance=True,
            total_latency=t_tot,
            effective_burst=j,
            delay_bound=t_tot + j / r_s,
            backlog_bound=j + r_a * t_tot,
            throughput_lower_bound=r_a,
        ),
    ))

    # -- homogeneous tandem: only the first stage collects --------------
    r_a, r_s, t, j, n = 120 * MiB, 300 * MiB, 5e-4, 128 * KiB, 3
    t_tot = j / r_a + n * t
    out.append(ScenarioSpec(
        name="classic-tandem-3",
        family="classic",
        description="three identical stages; downstream jobs are covered "
        "by the upstream emission granularity",
        pipeline=_doc("classic-tandem-3", r_a,
                      [_stage(f"s{i}", r_s, latency=t, job=j) for i in range(n)],
                      packet=32 * KiB),
        workload=8 * MiB,
        expect=Expectations(
            stable=True, conformance=True,
            total_latency=t_tot,
            effective_burst=j,
            delay_bound=t_tot + j / r_s,
            backlog_bound=j + r_a * t_tot,
            throughput_lower_bound=r_a,
        ),
    ))

    # -- M/M/1 stations at three utilizations ----------------------------
    mu_rate, job = 128 * MiB, 64 * KiB
    for rho in (0.5, 0.8, 0.95):
        lam_rate = rho * mu_rate
        lam, mu = lam_rate / job, mu_rate / job      # jobs/s
        out.append(ScenarioSpec(
            name=f"classic-mm1-rho{int(rho * 100)}",
            family="classic",
            description=f"M/M/1 station at rho={rho}: L, W, Wq closed forms "
            "vs repro.queueing.MM1",
            pipeline=_doc(f"classic-mm1-rho{int(rho * 100)}", lam_rate,
                          [_stage("station", mu_rate, job=job)]),
            workload=8 * MiB,
            expect=Expectations(
                stable=True, conformance=True,
                mm1_mean_jobs=lam / (mu - lam),       # Little: lam * W
                mm1_mean_sojourn=1.0 / (mu - lam),
                mm1_mean_wait=lam / (mu * (mu - lam)),  # rho / (mu - lam)
                queueing_prediction=lam_rate,
                throughput_lower_bound=lam_rate,
            ),
        ))

    # -- M/G/1 with the simulator's uniform service ----------------------
    r_a, job = 100 * MiB, 128 * KiB
    r_min, r_avg, r_max = 200 * MiB, 240 * MiB, 300 * MiB
    lam = r_a / job
    s_lo, s_hi = job / r_max, job / r_min            # uniform service support
    es = 0.5 * (s_lo + s_hi)
    es2 = (s_lo * s_lo + s_lo * s_hi + s_hi * s_hi) / 3.0
    rho = lam * es
    out.append(ScenarioSpec(
        name="classic-mg1-uniform",
        family="classic",
        description="Pollaczek-Khinchine waiting time for the simulator's "
        "uniform per-job service",
        pipeline=_doc("classic-mg1-uniform", r_a,
                      [_stage("station", r_avg, min_rate=r_min,
                              max_rate=r_max, job=job)]),
        workload=8 * MiB,
        expect=Expectations(
            stable=True, conformance=True,
            mg1_mean_wait=lam * es2 / (2.0 * (1.0 - rho)),
            throughput_lower_bound=r_a,
        ),
    ))

    # -- heterogeneous tandem backlog via Little's law -------------------
    r_a = 50 * MiB
    stations = [(96 * MiB, 64 * KiB), (80 * MiB, 128 * KiB), (128 * MiB, 32 * KiB)]
    backlog = 0.0
    for rate, jb in stations:
        lam_i, mu_i = r_a / jb, rate / jb
        w_i = 1.0 / (mu_i - lam_i)                   # M/M/1 sojourn
        backlog += (lam_i * w_i) * jb                # Little: L = lam * W
    out.append(ScenarioSpec(
        name="classic-tandem-little",
        family="classic",
        description="tandem M/M/1 backlog: sum of lam*W*job_bytes (Little) "
        "vs the queueing network's rho/(1-rho) form",
        pipeline=_doc("classic-tandem-little", r_a,
                      [_stage(f"q{i}", rate, job=jb)
                       for i, (rate, jb) in enumerate(stations)],
                      packet=32 * KiB),
        workload=8 * MiB,
        expect=Expectations(
            stable=True, conformance=True,
            tandem_backlog_bytes=backlog,
            throughput_lower_bound=r_a,
        ),
    ))

    # -- roofline stability edges ----------------------------------------
    out.append(ScenarioSpec(
        name="classic-roofline-source-limited",
        family="classic",
        description="offered load below the bottleneck: roofline = source rate",
        pipeline=_doc("classic-roofline-source-limited", 80 * MiB,
                      [_stage("a", 100 * MiB, job=64 * KiB),
                       _stage("b", 150 * MiB, job=64 * KiB)]),
        workload=8 * MiB,
        expect=Expectations(
            stable=True, conformance=True,
            queueing_prediction=80 * MiB,
            throughput_lower_bound=80 * MiB,
            throughput_upper_bound=80 * MiB,
        ),
    ))

    r_a, r_s, t, j = 150 * MiB, 100 * MiB, 1e-3, 64 * KiB
    t_tot = j / r_a + t
    out.append(ScenarioSpec(
        name="classic-roofline-bottleneck",
        family="classic",
        description="offered load above the bottleneck: unstable regime, "
        "the paper's affine transient estimates",
        pipeline=_doc("classic-roofline-bottleneck", r_a,
                      [_stage("slow", r_s, latency=t, job=j)]),
        workload=8 * MiB,
        expect=Expectations(
            stable=False, conformance=True,
            total_latency=t_tot,
            effective_burst=j,
            delay_bound=t_tot + j / r_s,             # estimate: T + b/R_beta
            backlog_bound=j + r_a * t_tot,           # estimate: b + R_a*T
            throughput_lower_bound=r_s,
            queueing_prediction=r_s,
        ),
    ))

    # -- zero-latency pass-through (packet-granular) ---------------------
    r_a, r_s, j = 64 * MiB, 128 * MiB, 4 * KiB
    t_tot = j / r_a                                  # pure collection, T = 0
    out.append(ScenarioSpec(
        name="classic-zero-latency",
        family="classic",
        description="zero dispatch latency, packet-granular jobs: bounds "
        "collapse to pure rate terms",
        pipeline=_doc("classic-zero-latency", r_a, [_stage("wire", r_s, job=j)],
                      packet=j),
        workload=4 * MiB,
        expect=Expectations(
            stable=True, conformance=True,
            total_latency=t_tot,
            effective_burst=j,
            delay_bound=t_tot + j / r_s,
            backlog_bound=j + r_a * t_tot,
            throughput_lower_bound=r_a,
        ),
    ))

    return out


# --------------------------------------------------------------------- #
# randomized family
# --------------------------------------------------------------------- #

#: volume-ratio chain inserted into deeper randomized pipelines; powers
#: of two keep the generator's independent prefix products float-exact
_PACK_RATIO, _UNPACK_RATIO = 0.5, 2.0


def randomized_scenarios(n: int = 10, base_seed: int = 7_2024) -> list[ScenarioSpec]:
    """``n`` seed-deterministic stable pipelines.

    Per-scenario parameters come from independent ``SeedSequence``
    streams, so scenario ``i`` is identical regardless of how many
    siblings are generated.  The expected throughput floor and
    effective burst are derived here with an independent prefix-product
    normalization, cross-checking :mod:`repro.streaming.normalization`.
    """
    from ..des.distributions import spawn_rngs

    out: list[ScenarioSpec] = []
    for i, rng in enumerate(spawn_rngs(base_seed, n)):
        depth = 2 + i % 5
        with_ratio_chain = depth >= 4
        stages: list[dict[str, Any]] = []
        volume = 1.0                                  # V entering the stage
        min_norm_rates: list[float] = []
        max_job_norm = 0.0
        for k in range(depth):
            base = float(rng.uniform(150, 700)) * MiB
            spread = float(rng.uniform(1.05, 1.4))
            job = float(rng.choice([64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB]))
            latency = float(rng.uniform(1e-4, 2e-3))
            ratio = None
            if with_ratio_chain and k == 1:
                ratio = _PACK_RATIO
            elif with_ratio_chain and k == depth - 1:
                ratio = _UNPACK_RATIO
            stages.append(_stage(
                f"s{k}", base,
                min_rate=base / spread, max_rate=base * spread,
                latency=latency, job=job, ratio=ratio,
            ))
            min_norm_rates.append((base / spread) / volume)
            max_job_norm = max(max_job_norm, job / volume)
            if ratio is not None:
                volume *= ratio
        bottleneck = min(min_norm_rates)
        source_rate = 0.75 * bottleneck
        burst = float(rng.uniform(0.0, 2.0)) * MiB
        out.append(ScenarioSpec(
            name=f"rand-d{depth}-{i:02d}",
            family="randomized",
            description=f"seed-deterministic stable pipeline (depth {depth}"
            + (", volume-ratio chain" if with_ratio_chain else "") + ")",
            pipeline=_doc(f"rand-d{depth}-{i:02d}", source_rate, stages,
                          burst=burst),
            workload=8 * MiB,
            seed=base_seed + i,
            expect=Expectations(
                stable=True, conformance=True,
                throughput_lower_bound=source_rate,
                effective_burst=max(burst, max_job_norm),
            ),
        ))
    return out


# --------------------------------------------------------------------- #
# adversarial family
# --------------------------------------------------------------------- #


def adversarial_scenarios(base_seed: int = 13_2024) -> list[ScenarioSpec]:
    """Stress cases: saturation, bursts, deep aggregation, heavy tails."""
    from ..des.distributions import bounded_pareto, lognormal, spawn_rngs

    out: list[ScenarioSpec] = []

    # -- rho -> 1 from below, and exactly 1 ------------------------------
    r_s, t, j = 128 * MiB, 1e-3, 64 * KiB
    for label, r_a in (("exact", r_s), ("near", r_s * (1.0 - 1e-6))):
        t_tot = j / r_a + t
        out.append(ScenarioSpec(
            name=f"adv-saturation-{label}",
            family="adversarial",
            description=f"offered load at rho {'= 1' if label == 'exact' else '= 1 - 1e-6'}: "
            "bounds stay finite and must still hold",
            pipeline=_doc(f"adv-saturation-{label}", r_a,
                          [_stage("edge", r_s, latency=t, job=j)]),
            workload=6 * MiB,
            expect=Expectations(
                stable=True, conformance=True,
                total_latency=t_tot,
                delay_bound=t_tot + j / r_s,
                backlog_bound=j + r_a * t_tot,
                throughput_lower_bound=r_a,
            ),
        ))

    # -- just past saturation: transient-estimate regime ------------------
    r_a = r_s * (1.0 + 1e-3)
    t_tot = j / r_a + t
    out.append(ScenarioSpec(
        name="adv-saturation-past",
        family="adversarial",
        description="rho = 1 + 1e-3: unstable, affine estimates replace bounds",
        pipeline=_doc("adv-saturation-past", r_a,
                      [_stage("edge", r_s, latency=t, job=j)]),
        workload=6 * MiB,
        expect=Expectations(
            stable=False, conformance=True,
            delay_bound=t_tot + j / r_s,
            backlog_bound=j + r_a * t_tot,
            throughput_lower_bound=r_s,
        ),
    ))

    # -- bursty leaky-bucket source --------------------------------------
    r_a, b, r_s, t, j = 96 * MiB, 16 * MiB, 192 * MiB, 1e-3, 128 * KiB
    out.append(ScenarioSpec(
        name="adv-bursty-source",
        family="adversarial",
        description="16 MiB instantaneous source burst dominates every "
        "other term in d and x",
        pipeline=_doc("adv-bursty-source", r_a,
                      [_stage("absorb", r_s, latency=t, job=j)], burst=b),
        workload=48 * MiB,
        expect=Expectations(
            stable=True, conformance=True,
            total_latency=t,                          # burst covers the job
            effective_burst=b,
            delay_bound=t + b / r_s,
            backlog_bound=b + r_a * t,
            throughput_lower_bound=r_a,
        ),
    ))

    # -- deep job-ratio aggregation chain --------------------------------
    r_a, r_s, t, depth = 100 * MiB, 400 * MiB, 1e-4, 10
    jobs = [8 * KiB * 2**k for k in range(depth)]     # 8 KiB .. 4 MiB
    t_tot = sum(jk / r_a for jk in jobs) + depth * t  # every stage collects
    out.append(ScenarioSpec(
        name="adv-deep-chain-10",
        family="adversarial",
        description="10 stages, each aggregating twice its upstream "
        "granularity: every stage pays collection latency",
        pipeline=_doc("adv-deep-chain-10", r_a,
                      [_stage(f"agg{k}", r_s, latency=t, job=jobs[k])
                       for k in range(depth)],
                      packet=8 * KiB),
        workload=16 * MiB,
        expect=Expectations(
            stable=True, conformance=True,
            total_latency=t_tot,
            effective_burst=jobs[-1],
            delay_bound=t_tot + jobs[-1] / r_s,
            backlog_bound=jobs[-1] + r_a * t_tot,
            throughput_lower_bound=r_a,
        ),
    ))

    # -- l_max-dominated packetized stage --------------------------------
    r_a, r_s, t, j = 128 * MiB, 256 * MiB, 1e-3, 4 * MiB
    t_tot = j / r_a + t
    out.append(ScenarioSpec(
        name="adv-lmax-packetized",
        family="adversarial",
        description="4 MiB job granularity under packetized curves: the "
        "[beta - l_max]^+ correction shifts the latency by l_max/R",
        pipeline=_doc("adv-lmax-packetized", r_a,
                      [_stage("batch", r_s, latency=t, job=j)]),
        workload=16 * MiB,
        packetized=True,
        expect=Expectations(
            stable=True, conformance=True,
            total_latency=t_tot,
            effective_burst=j,
            delay_bound=t_tot + j / r_s + j / r_s,    # + l_max/R shift
            backlog_bound=j + r_a * (t_tot + j / r_s),
            throughput_lower_bound=r_a,
        ),
    ))

    # -- heavy-tailed parameter draws ------------------------------------
    rng_jobs, rng_rates = spawn_rngs(base_seed, 2)
    job_dist = bounded_pareto(1.3, 32 * KiB, 1 * MiB)
    rate_dist = lognormal(300 * MiB, 0.4)
    for name, depth, rng, spread in (
        ("adv-heavytail-jobs", 4, rng_jobs, 1.0),
        ("adv-heavytail-deep", 7, rng_rates, 1.2),
    ):
        stages = []
        min_rates = []
        for k in range(depth):
            job = 4 * KiB * max(8, round(job_dist(rng) / (4 * KiB)))
            rate = rate_dist(rng)
            stages.append(_stage(
                f"h{k}", rate,
                min_rate=rate / spread, max_rate=rate * spread,
                latency=float(rng.uniform(1e-4, 1e-3)), job=float(job),
            ))
            min_rates.append(rate / spread)
        source_rate = 0.7 * min(min_rates)
        out.append(ScenarioSpec(
            name=name,
            family="adversarial",
            description=f"stage parameters drawn from bounded-Pareto job "
            f"sizes and lognormal rates (depth {depth})",
            pipeline=_doc(name, source_rate, stages, packet=32 * KiB),
            workload=8 * MiB,
            seed=base_seed,
            expect=Expectations(
                stable=True, conformance=True,
                throughput_lower_bound=source_rate,
            ),
        ))

    # -- compression / expansion job-ratio chain --------------------------
    r_a = 90 * MiB
    # raw rates; input-referred = raw / V(entering), V in {1, 0.25}
    pack, crunch, unpack = 400 * MiB, 120 * MiB, 400 * MiB
    norm_rates = [pack / 1.0, crunch / 0.25, unpack / 0.25]
    out.append(ScenarioSpec(
        name="adv-jobratio-chain",
        family="adversarial",
        description="4:1 pack -> crunch -> unpack: raw rates normalize "
        "input-referred through the 0.25 volume prefix",
        pipeline=_doc("adv-jobratio-chain", r_a, [
            _stage("pack", pack, job=64 * KiB, ratio=0.25),
            _stage("crunch", crunch, job=64 * KiB),
            _stage("unpack", unpack, job=64 * KiB, ratio=4.0),
        ]),
        workload=8 * MiB,
        expect=Expectations(
            stable=True, conformance=True,
            throughput_lower_bound=r_a,
            throughput_upper_bound=r_a,
            queueing_prediction=r_a,
            effective_burst=64 * KiB / 0.25,          # crunch's job, normalized
        ),
    ))

    assert min(norm_rates) > r_a  # stable by construction
    return out


# --------------------------------------------------------------------- #
# catalog
# --------------------------------------------------------------------- #


# --------------------------------------------------------------------- #
# multiflow family (multi-tenant residual service)
# --------------------------------------------------------------------- #


def _residual_view(
    name: str,
    description: str,
    *,
    server_rate: float,
    server_latency: float,
    tenant_rate: float,
    tenant_burst: float,
    cross: "list[tuple[float, float]]",
    job: float,
    workload: float,
) -> ScenarioSpec:
    """One tenant's view of a shared server: a blind-residual stage.

    The pipeline document declares the residual server with the
    hand-derived affine parameters ``R_res = R - sum R_j`` and
    ``T_res = (T R + sum b_j) / R_res``; the *expectations* are
    recomputed through :mod:`repro.nc.multiflow` curve algebra
    (``delay_bound(alpha_i, [beta - sum alpha_j]^+)``), so the
    streaming affine recursion and the min-plus residual construction
    must land on the same numbers.
    """
    beta = rate_latency(server_rate, server_latency)
    alpha_cross = aggregate_arrival(
        *(leaky_bucket(r, b) for r, b in cross)
    )
    residual = blind_residual(beta, alpha_cross)
    alpha = leaky_bucket(tenant_rate, tenant_burst)
    cross_rate = sum(r for r, _ in cross)
    cross_burst = sum(b for _, b in cross)
    r_res = server_rate - cross_rate
    t_res = (server_latency * server_rate + cross_burst) / r_res
    return ScenarioSpec(
        name=name,
        family="multiflow",
        description=description,
        pipeline=_doc(name, tenant_rate,
                      [_stage("residual", r_res, latency=t_res, job=job)],
                      burst=tenant_burst),
        workload=workload,
        expect=Expectations(
            stable=True, conformance=True,
            total_latency=t_res,                  # tenant_burst >= job
            effective_burst=tenant_burst,
            delay_bound=delay_bound(alpha, residual),
            backlog_bound=backlog_bound(alpha, residual),
            throughput_lower_bound=tenant_rate,
        ),
    )


def multiflow_scenarios() -> list[ScenarioSpec]:
    """Multi-tenant residual-service scenarios (the cluster admission math)."""
    out: list[ScenarioSpec] = []

    # -- two equal tenants sharing one server ----------------------------
    out.append(_residual_view(
        "multiflow-2tenants-blind",
        "two equal leaky-bucket tenants share beta; tenant 0's blind "
        "residual is rate R-R_1, latency (T R + b_1)/(R-R_1)",
        server_rate=300 * MiB, server_latency=1e-3,
        tenant_rate=60 * MiB, tenant_burst=1 * MiB,
        cross=[(60 * MiB, 1 * MiB)],
        job=64 * KiB, workload=8 * MiB,
    ))

    # -- four heterogeneous tenants, smallest tenant's view --------------
    out.append(_residual_view(
        "multiflow-4tenants-blind",
        "four heterogeneous tenants; the 40 MiB/s tenant sees the other "
        "three (150 MiB/s, 2.25 MiB burst) as cross traffic",
        server_rate=300 * MiB, server_latency=1e-3,
        tenant_rate=40 * MiB, tenant_burst=512 * KiB,
        cross=[(60 * MiB, 1 * MiB), (50 * MiB, 768 * KiB), (40 * MiB, 512 * KiB)],
        job=64 * KiB, workload=8 * MiB,
    ))

    # -- the aggregate view: sum alpha_i through the full beta ------------
    tenants = [(60 * MiB, 1 * MiB), (50 * MiB, 768 * KiB),
               (40 * MiB, 512 * KiB), (40 * MiB, 512 * KiB)]
    server_rate, server_latency = 300 * MiB, 1e-3
    beta = rate_latency(server_rate, server_latency)
    aggregate = aggregate_arrival(*(leaky_bucket(r, b) for r, b in tenants))
    agg_rate = sum(r for r, _ in tenants)
    agg_burst = sum(b for _, b in tenants)
    job = 64 * KiB
    out.append(ScenarioSpec(
        name="multiflow-aggregate",
        family="multiflow",
        description="the paper's aggregation: sum of four tenant alphas "
        "through the full beta; d = T + (sum b_i)/R",
        pipeline=_doc("multiflow-aggregate", agg_rate,
                      [_stage("server", server_rate, latency=server_latency,
                              job=job)],
                      burst=agg_burst),
        workload=8 * MiB,
        expect=Expectations(
            stable=True, conformance=True,
            total_latency=server_latency,         # agg_burst >= job
            effective_burst=agg_burst,
            delay_bound=delay_bound(aggregate, beta),
            backlog_bound=backlog_bound(aggregate, beta),
            throughput_lower_bound=agg_rate,
        ),
    ))

    # -- heavy cross traffic: the residual is thin but still stable -------
    out.append(_residual_view(
        "multiflow-heavy-cross",
        "cross tenants claim 220 of 300 MiB/s and 4 MiB of burst; the "
        "30 MiB/s tenant's residual rate is 80 MiB/s with ~54 ms latency",
        server_rate=300 * MiB, server_latency=1e-3,
        tenant_rate=30 * MiB, tenant_burst=256 * KiB,
        cross=[(120 * MiB, 2 * MiB), (100 * MiB, 2 * MiB)],
        job=64 * KiB, workload=8 * MiB,
    ))

    return out


def catalog() -> list[ScenarioSpec]:
    """The full built-in catalog (deterministic order and content)."""
    specs = (
        classic_scenarios() + randomized_scenarios() + adversarial_scenarios()
        + multiflow_scenarios()
    )
    names = [s.name for s in specs]
    if len(set(names)) != len(names):  # pragma: no cover - generator bug guard
        raise RuntimeError(f"duplicate scenario names in catalog: {names}")
    return specs


def quick_catalog(per_family: int = 3) -> list[ScenarioSpec]:
    """A small deterministic subset (CI smoke): first N of each family."""
    out: list[ScenarioSpec] = []
    for family_specs in (
        classic_scenarios(), randomized_scenarios(), adversarial_scenarios(),
        multiflow_scenarios(),
    ):
        out.extend(family_specs[:per_family])
    return out
