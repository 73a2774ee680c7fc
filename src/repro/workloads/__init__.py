"""Benchmark workloads (Section 6 of the paper).

"Comparisons should be performed with respect to non-private solutions
using standardized database benchmarks like TPC and YCSB."

* :mod:`repro.workloads.ycsb` — YCSB core workloads A–F with Zipfian
  key selection;
* :mod:`repro.workloads.tpcc` — a simplified TPC-C (NEW-ORDER and
  PAYMENT over warehouse/district/customer/stock);
* :mod:`repro.workloads.streams` — update-arrival generators (Poisson
  and bursty) for the DP-budget and DP-Sync experiments.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.ycsb import YCSBWorkload, YCSBOperation, WORKLOAD_MIXES
    from repro.workloads.tpcc import TPCCWorkload
    from repro.workloads.streams import poisson_arrivals, bursty_arrivals

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.workloads.ycsb": (
        "YCSBWorkload", "YCSBOperation", "WORKLOAD_MIXES",
    ),
    "repro.workloads.tpcc": ("TPCCWorkload",),
    "repro.workloads.streams": ("poisson_arrivals", "bursty_arrivals"),
})

__all__ = [
    "YCSBWorkload",
    "YCSBOperation",
    "WORKLOAD_MIXES",
    "TPCCWorkload",
    "poisson_arrivals",
    "bursty_arrivals",
]
