"""Cross-checking the model with the multi-clock simulator.

Every task runs on its own integer-picosecond clock; channels are
depth-bounded FIFOs with independent read/write clocks.  Steady-state
throughput should match min(f/II) over the tasks, and all three
strategies should measure the same rate at the same base clock.
"""

from pumpwise import (
    SimConfig,
    compute_throughput,
    datasets,
    default_warmup,
    load_dfg,
    make_plan,
    simulate,
)

for name, f_base in (("conv2d.json", 250), ("vms.json", 110)):
    dfg = load_dfg(datasets.path(name))
    print(f"{name} @ base {f_base} MHz, 10000 iterations:")
    for strategy in ("base", "s-pump", "m-pump"):
        plan = make_plan(dfg, f_base, strategy)
        cfg = SimConfig(iterations=10000, warmup=default_warmup(dfg, plan))
        rep = simulate(dfg, plan, cfg)
        analytic = compute_throughput(dfg, plan)
        err = abs(rep.throughput_msps - analytic) / analytic
        print(
            f"  {strategy:7s}: simulated {float(rep.throughput_msps):8.3f} msps, "
            f"analytic {float(analytic):8.3f}, error {float(err) * 100:6.3f} %"
        )
    print()

# Back-pressure is visible in the FIFO peaks: a fast producer fills its
# output channel and throttles to the consumer's rate.
dfg = load_dfg(datasets.path("conv2d.json"))
plan = make_plan(dfg, 165, "m-pump")
rep = simulate(dfg, plan, SimConfig(10000, 150))
print("conv2d m-pump @ 165 MHz, per-channel peaks:")
for ch, decl in zip(rep.channels, dfg.channels):
    print(f"  {ch.src}->{ch.dst}: peak {ch.peak_occupancy} of depth {decl.depth}")
