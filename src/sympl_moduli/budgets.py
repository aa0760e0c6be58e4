"""Work budgets: the largest size each unbounded loop accepts.

A call past its budget raises DomainError before any work, so the CLI
exits 1 with one `error:` line instead of running for minutes or
exhausting memory.  The timings are library calls, and the commands
around them with stdout sent to /dev/null, at the budget on a 2-CPU
machine with Python 3.11.
"""

#: The largest Delta the O(Delta) routes accept: the oracle's walk and
#: the model map's ~Delta points grow with it (the model map reads its
#: residue pairs one at a time and keeps none).  2^20 admits README's
#: 997,3;5,999 (Delta 995,988).  The gcd formula has no budget.
MAX_WALK_DELTA = 2 ** 20

#: The most rows integrate_profile traces (10^6 rows: about 5 s).
MAX_TRACE_SAMPLES = 10 ** 6

#: The largest n_max of generic_spectrum and polar_spectrum (10^6: about
#: 2e6 eigenvalues in 1.1-1.3 s).  `spectrum --nmax 1000000` takes
#: 3.3-3.5 s and prints 85 MB, mostly in its 12-digit rounding and
#: indented JSON.
MAX_SPECTRUM_N = 10 ** 6

#: The largest entry bound of enumerate_labels (20: 637,046 two-end
#: labels in 1.0 s); its candidate list grows like the bound^4.
#: `enumerate --max-abs 20 --ends 2` takes 5.4-5.7 s at a peak RSS of
#: 229 MB and prints 106 MB; the root-of-unity oracle walks its 88,200
#: distinct lattices once each, 22 MB of that RSS.
MAX_ENUM_BOUND = 20
