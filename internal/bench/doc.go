// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (§5). It builds the CL/UL/ZL workloads, sweeps
// the Table 2 parameters (query length ql, k, |P|/|O| ratio, buffer size
// bs, one-vs-two R-trees), runs the COkNN algorithm over seeded random
// query workloads, and reports the paper's metrics: total query cost (I/O
// charged at 10 ms per page fault + CPU), NPE, NOE and |SVG|.
//
// The cardinalities scale linearly with the Scale parameter: Scale = 1
// reproduces the paper's full |CA| = 60,344 and |LA| = 131,461; the
// default harness scale of 0.1 keeps a full figure sweep within
// laptop-minutes. The shape of every reported curve is preserved across
// scales.
//
// The Table 2 default cell's machine-independent metrics are pinned as
// BENCH_*.json (see json.go and `connbench -json -metrics-baseline`):
// NPE/NOE/|SVG| may not drift at all. Wall-clock performance is measured by
// the benchmark/ module, not here.
package bench
