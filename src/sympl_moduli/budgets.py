"""Work budgets: the largest size each unbounded loop accepts, and the
one refusal past a budget, a DomainError before any work, so the CLI
exits 1 with one `error:` line instead of running for minutes or
exhausting memory.  README's budget paragraph times each budget.
"""

from .errors import DomainError, _text

#: The largest Delta the O(Delta) routes accept: the oracle's walk and
#: the model map's ~Delta points grow with it (the model map reads its
#: residue pairs one at a time and keeps none).  2^20 admits README's
#: 997,3;5,999 (Delta 995,988).  The gcd formula has no budget.
MAX_WALK_DELTA = 2 ** 20

#: The most rows integrate_profile traces: its rows, and the memory
#: that holds them, grow with it.
MAX_TRACE_SAMPLES = 10 ** 6

#: The largest n_max of generic_spectrum and polar_spectrum: about
#: 2 n_max eigenvalues, each printed by `spectrum`.
MAX_SPECTRUM_N = 10 ** 6

#: The largest entry bound of enumerate_labels: its candidate list grows
#: like the bound^4, and the labels it accepts with it.
MAX_ENUM_BOUND = 20


def require_within(name: str, value: int, budget: int, work: str) -> None:
    """DomainError, in the one wording of a refusal past a budget, when
    value, the size called name, is past budget; work is what it guards."""
    if value > budget:
        raise DomainError(f"{name} = {_text(value)} exceeds {_text(budget)}, "
                          f"the budget of {work}")
