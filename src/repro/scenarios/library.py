"""The built-in scenario library.

Named, ready-to-run deployments — the paper's Section IV settings plus
richer workloads the hand-assembled harness could not express (rolling
cascades, churn with arrivals, flash crowds, inter-region handoffs,
heterogeneous fleets, battery cliffs).  Importing this module registers
everything; list them with ``python -m repro scenario list``.
"""

from __future__ import annotations

from repro.scenarios.registry import register
from repro.scenarios.spec import EventSpec, MatrixSpec, RegionSpec, ScenarioSpec

ALL_SCHEMES = ("base", "rep-2", "local", "dist-1", "dist-2", "dist-3", "ms-8")

PAPER_FIG8 = register(ScenarioSpec(
    name="paper-fig8",
    description="Section IV-B fault-free comparison: every scheme's "
                "throughput/latency overhead versus the base system, "
                "both applications (the Fig. 8 bars).",
    duration_s=900.0,
    warmup_s=150.0,
    matrix=MatrixSpec(apps=("bcp", "signalguru"), schemes=ALL_SCHEMES, seeds=(3,)),
))

PAPER_FIG9_BURST = register(ScenarioSpec(
    name="paper-fig9-burst",
    description="Fig. 9's headline point: four phones crash simultaneously "
                "inside one checkpoint period; MobiStreams restores the "
                "burst like a single failure.",
    duration_s=900.0,
    warmup_s=150.0,
    idle_per_region=8,
    events=(EventSpec(kind="crash", time=450.0, phones=(3, 4, 5, 6)),),
    matrix=MatrixSpec(apps=("bcp",), schemes=("ms-8", "dist-3"), seeds=(3,)),
))

FAILURE_CASCADE = register(ScenarioSpec(
    name="failure-cascade",
    description="A rolling burst: one phone dies every 30 s for two "
                "minutes, all inside a single checkpoint period — more "
                "failures arrive while recovery is still in flight.",
    duration_s=900.0,
    warmup_s=150.0,
    idle_per_region=8,
    events=(
        EventSpec(kind="cascade", time=400.0, phones=(3, 4, 5, 6), interval=30.0),
    ),
    matrix=MatrixSpec(apps=("bcp",), schemes=("ms-8", "dist-3"), seeds=(3,)),
))

RUSH_HOUR_CHURN = register(ScenarioSpec(
    name="rush-hour-churn",
    description="Organic churn: phones trickle out at exponential gaps "
                "while fresh phones keep arriving and registering as "
                "spares — sustained membership turnover, not one burst.",
    duration_s=900.0,
    warmup_s=150.0,
    idle_per_region=4,
    events=(
        EventSpec(kind="churn", time=200.0, phones=(3, 4, 5), interval=120.0,
                  until=800.0),
        EventSpec(kind="join", time=260.0, count=1),
        EventSpec(kind="join", time=380.0, count=1),
        EventSpec(kind="join", time=500.0, count=1),
    ),
    matrix=MatrixSpec(apps=("bcp",), schemes=("ms-8",), seeds=(3, 4)),
))

FLASH_CROWD = register(ScenarioSpec(
    name="flash-crowd",
    description="A flash crowd triples the source rate for five minutes "
                "mid-run: how much surge headroom does each scheme's "
                "fault-tolerance overhead leave?",
    duration_s=900.0,
    warmup_s=150.0,
    events=(EventSpec(kind="surge", time=300.0, factor=3.0, until=600.0),),
    matrix=MatrixSpec(apps=("bcp",), schemes=("base", "ms-8"), seeds=(3,)),
))

HANDOFF_STORM = register(ScenarioSpec(
    name="handoff-storm",
    description="Two cascaded regions; a wave of phones walks from the "
                "first region into the second — simultaneous departures "
                "upstream become simultaneous arrivals downstream.",
    duration_s=900.0,
    warmup_s=150.0,
    n_regions=2,
    idle_per_region=6,
    events=(
        EventSpec(kind="handoff", time=400.0, region=0, phones=(3, 4, 5),
                  to_region=1),
        EventSpec(kind="handoff", time=520.0, region=0, phones=(6,), to_region=1),
    ),
    matrix=MatrixSpec(apps=("bcp",), schemes=("ms-8",), seeds=(3,)),
))

HETEROGENEOUS_FLEET = register(ScenarioSpec(
    name="heterogeneous-fleet",
    description="Three cascaded regions with very different fleets: fast "
                "fresh phones upstream, slow half-charged stragglers at "
                "the tail — where does the cascade bottleneck?",
    duration_s=900.0,
    warmup_s=150.0,
    n_regions=3,
    regions=(
        RegionSpec(cpu_speed=1.4, charge_fraction=1.0),
        RegionSpec(cpu_speed=1.0, charge_fraction=0.9),
        RegionSpec(cpu_speed=0.6, charge_fraction=0.7),
    ),
    matrix=MatrixSpec(apps=("bcp",), schemes=("base", "ms-8"), seeds=(3,)),
))

EDGEML_BASELINE = register(ScenarioSpec(
    name="edgeml-baseline",
    description="Split-DNN edge inference, fault-free: megabytes of "
                "per-partition weight state make checkpoint traffic the "
                "overhead story — how do the schemes rank on a workload "
                "the paper never measured?",
    duration_s=900.0,
    warmup_s=150.0,
    matrix=MatrixSpec(apps=("edgeml",), schemes=("base", "dist-2", "ms-8"),
                      seeds=(3,)),
))

EDGEML_SPLIT_SWEEP = register(ScenarioSpec(
    name="edgeml-split-sweep",
    description="Where to split the network: shallow splits keep weights "
                "off the phones but ship fat tensors, deep splits invert "
                "the trade — swept via parameterized app refs, with a "
                "mid-run crash of a partition phone.",
    duration_s=900.0,
    warmup_s=150.0,
    idle_per_region=4,
    # Phone 2 hosts a partition stage at every swept split depth.
    events=(EventSpec(kind="crash", time=450.0, phones=(2,)),),
    matrix=MatrixSpec(
        apps=(
            {"name": "edgeml", "params": {"n_stages": 2}},
            {"name": "edgeml", "params": {"n_stages": 4}},
            {"name": "edgeml", "params": {"n_stages": 6}},
        ),
        schemes=("ms-8",),
        seeds=(3,),
    ),
))

FLEET_IDLE_CHURN = register(ScenarioSpec(
    name="fleet-idle-churn",
    description="Fleet scale: a 2000-spare idle pool behind the usual "
                "8-phone dataflow, with organic churn and arrivals — the "
                "vectorized device backend keeps the per-tick battery "
                "bookkeeping O(1) Python calls instead of O(n).",
    duration_s=900.0,
    warmup_s=150.0,
    idle_per_region=2000,
    events=(
        EventSpec(kind="churn", time=200.0, phones=(3, 4, 5), interval=120.0,
                  until=800.0),
        EventSpec(kind="join", time=260.0, count=1),
        EventSpec(kind="join", time=500.0, count=1),
    ),
    matrix=MatrixSpec(apps=("bcp",), schemes=("ms-8",), seeds=(3,)),
))

FLEET_BATTERY_WAVE = register(ScenarioSpec(
    name="fleet-battery-wave",
    description="Fleet scale: 1500 phones all start a hair above the "
                "chronic-battery threshold and cross it together mid-run "
                "— one vectorized sweep flags the whole wave, and every "
                "computing phone self-reports at once.",
    duration_s=900.0,
    warmup_s=150.0,
    idle_per_region=1500,
    # 0.0319 × 16 kJ = 510.4 J; idle drain (0.15 W) crosses the 480 J
    # chronic threshold at ~203 s — inside the run window even for
    # quick() copies, whose clocks compress but whose drain rates do not.
    regions=(RegionSpec(charge_fraction=0.0319),),
    matrix=MatrixSpec(apps=("bcp",), schemes=("ms-8",), seeds=(3,)),
))

BATTERY_CLIFF = register(ScenarioSpec(
    name="battery-cliff",
    description="Two phones fall off a battery cliff to the chronic "
                "threshold mid-run: Section III-D's proactive self-report "
                "path replaces them before they die.",
    duration_s=900.0,
    warmup_s=150.0,
    idle_per_region=4,
    events=(EventSpec(kind="battery", time=350.0, phones=(2, 3), charge=0.02),),
    matrix=MatrixSpec(apps=("bcp",), schemes=("ms-8",), seeds=(3,)),
))
