"""Tests for the energy model's runtime integration (Section III-D).

"A node can also actively report its own failure to the controller, for
example, when its battery is at chronic levels" — chronic batteries
trigger proactive handoff under MobiStreams; empty batteries crash the
phone like any failure.
"""


from repro.baselines import NoFaultTolerance
from repro.checkpoint import MobiStreamsScheme
from repro.device.battery import BatteryConfig
from repro.device.phone import PhoneConfig

from tests.baselines._harness import PipelineApp, build_system, sink_seqs


def drain_phone(system, phone_id, to_fraction):
    """Set one phone's charge to a fraction of capacity."""
    phone = system.regions[0].phones[phone_id]
    phone.battery.remaining_j = phone.battery.config.capacity_j * to_fraction


def test_idle_drain_accumulates():
    sys_ = build_system(NoFaultTolerance)
    sys_.run(120.0)
    for phone in sys_.regions[0].phones.values():
        assert phone.battery.fraction < 1.0


def test_radio_and_cpu_drain_exceed_idle():
    """Computing phones burn more than idle spares (CPU + radio draws)."""
    sys_ = build_system(NoFaultTolerance)
    sys_.run(300.0)
    region = sys_.regions[0]
    m1 = region.phones[region.placement.node_for("M1", 0)]
    idle = region.phones["region0.idle0"]
    assert m1.battery.remaining_j < idle.battery.remaining_j


def test_battery_death_crashes_the_phone():
    sys_ = build_system(NoFaultTolerance)
    sys_.start()
    hit = sys_.regions[0].placement.node_for("M1", 0)
    # Leave just a sliver below critical; idle drain finishes it quickly
    # and no proactive handoff fires under NoFT anyway.
    drain_phone(sys_, hit, 0.00001)
    sys_.run(200.0)
    assert not sys_.regions[0].phones[hit].alive
    crashes = [r for r in sys_.trace.select("phone_crashed")
               if r.data["phone"] == hit]
    assert crashes and crashes[0].data["reason"] == "battery dead"
    # NoFT cannot recover from the loss.
    assert sys_.regions[0].stopped


def test_chronic_battery_triggers_self_report():
    sys_ = build_system(NoFaultTolerance)
    sys_.start()
    hit = sys_.regions[0].placement.node_for("M2", 0)
    drain_phone(sys_, hit, 0.02)  # below the 3% chronic threshold
    sys_.run(30.0)
    reports = list(sys_.trace.select("battery_critical"))
    assert any(r.data["phone"] == hit for r in reports)
    # Reported once, not every tick.
    assert sum(1 for r in reports if r.data["phone"] == hit) == 1


def test_mobistreams_hands_off_before_death():
    """Proactive handoff: state moves to a spare while the phone lives,
    so the region needs no restoration or catch-up when it dies."""
    sys_ = build_system(MobiStreamsScheme, period=60.0)
    sys_.start()
    hit = sys_.regions[0].placement.node_for("M1", 0)
    sys_.sim.call_at(100.0, lambda: drain_phone(sys_, hit, 0.02))
    sys_.run(400.0)
    region = sys_.regions[0]
    handoffs = list(sys_.trace.select("handoff_finished"))
    assert any(h.data["phone"] == hit and h.data["outcome"] == "replaced"
               for h in handoffs)
    assert region.placement.node_for("M1", 0) != hit
    assert not region.stopped
    # Proactive handoff is not a recovery: no MRC restore, no catch-up.
    assert not any(True for _ in sys_.trace.select("catchup_started"))
    seqs = sink_seqs(sys_)
    assert len(seqs) == len(set(seqs))
    assert len(seqs) == 200


def test_self_report_without_spares_waits_for_the_crash():
    sys_ = build_system(MobiStreamsScheme, idle=0, period=60.0)
    sys_.start()
    hit = sys_.regions[0].placement.node_for("M1", 0)
    drain_phone(sys_, hit, 0.02)
    sys_.run(60.0)
    # Self-report recorded, but no handoff possible without a spare.
    assert any(True for _ in sys_.trace.select("self_report"))
    assert not any(True for _ in sys_.trace.select("handoff_finished"))


def test_battery_monitor_can_be_disabled():
    from repro.core.system import MobiStreamsSystem, SystemConfig
    from repro.core.region import RegionConfig

    cfg = SystemConfig(
        n_regions=1, phones_per_region=4, idle_per_region=2, master_seed=5,
        region_defaults=RegionConfig(name="_", battery_tick_s=0.0),
    )
    sys_ = MobiStreamsSystem(cfg, PipelineApp(), NoFaultTolerance)
    sys_.run(120.0)
    idle = sys_.regions[0].phones["region0.idle0"]
    assert idle.battery.fraction == 1.0  # no idle drain charged


def test_low_capacity_fleet_fails_organically():
    """Long runs on small batteries produce organic failures."""
    from repro.core.system import MobiStreamsSystem, SystemConfig

    tiny = PhoneConfig(battery=BatteryConfig(capacity_j=40.0))
    cfg = SystemConfig(n_regions=1, phones_per_region=4, idle_per_region=2,
                       master_seed=5, phone=tiny)
    sys_ = MobiStreamsSystem(cfg, PipelineApp(), NoFaultTolerance)
    sys_.run(400.0)
    assert any(True for _ in sys_.trace.select("battery_dead"))


def test_phone_joined_mid_run_joins_the_battery_sweep():
    """A spare admitted after boot drains and self-reports like the
    phones the region started with."""
    sys_ = build_system(NoFaultTolerance)
    sys_.run(60.0)
    # 0.0301 of capacity sits ~1.6 J above the 3% chronic threshold.
    pid = sys_.admit_phone(0, charge_fraction=0.0301)
    sys_.run(60.0)
    assert sys_.find_phone(pid).battery.fraction < 0.0301
    reports = [r.data["phone"] for r in sys_.trace.select("battery_critical")]
    assert reports == [pid]


def test_departed_spare_leaves_the_battery_sweep():
    sys_ = build_system(NoFaultTolerance)
    sys_.run(60.0)
    spare = sys_.regions[0].phones["region0.idle0"]
    sys_.apply_departure(spare.id)
    left_with = spare.battery.remaining_j
    sys_.run(60.0)
    assert spare.battery.remaining_j == left_with
