"""Exception hierarchy for netlocal, and the size budgets that bound every request.

Every error raised by the library derives from NetlocalError so callers
(and the CLI exit-code mapping) can distinguish library failures from bugs.

Each guarded entry point states its cost as one estimate and passes it to
check_size with its budget below, before it builds anything; the CLI maps
the resulting SizeGuardError to exit code 3.  Times are measured with one
BLAS thread on a 2-vCPU VM.
"""


class NetlocalError(Exception):
    """Base class for all netlocal errors."""


class DimensionError(NetlocalError):
    """Operands have incompatible or non-square dimensions."""


class RangeError(NetlocalError):
    """A numeric argument lies outside its admissible range."""


class ScenarioError(NetlocalError):
    """A network scenario is malformed (unsupported n, bad operator lists, ...)."""


class KindError(NetlocalError):
    """An object built for one scenario kind was fed to code expecting the other."""


class SizeGuardError(NetlocalError):
    """A computation would exceed a documented size guard."""


class NoCrossingError(NetlocalError):
    """A bisection target is not bracketed by the scanned parameter range."""


# chain_table's cells; both kinds have 4**(n+1), and n = 13 is a 2 GiB table
CHAIN_CELL_GUARD = 4 ** 14
# decomposition holds three tables and simulate prints one as text: n <= 11
# (at n = 11, decomposition takes 0.8-1.5 s and 0.41-0.47 GB, simulate 1.9 s and 320 MB)
OUTPUT_CELL_GUARD = 4 ** 12
# evaluate_naive's global dimension 4**n: n <= 6
NAIVE_DIM_GUARD = 4096
# a membership LP's cells.  p22 is one block, priced by its strategy matrix
# D, a row per strategy tuple and a column per table cell, 4**(n+1) of each:
# n = 4 is 8 MB and 1.0-1.5 s of phase 1, n = 5 would need 134 MB.  p14 is
# 4**(n-1) blocks, priced by their tableaux of 9 x 26 cells: about 1.3-1.7 us
# a cell (0.3-0.4 ms a block, random behaviors, whose blocks all differ), so
# n = 7 takes 1.4 s of phase 1 and n = 8 would take about 6 s
LP_CELL_GUARD = 16 ** 5
# a behavior file that lp parses as JSON.  The largest table the LP admits,
# p14 n = 7, takes 1.54 MB from simulate --out and 1.80 MB re-dumped with
# indent=2, and lp on either takes 0.4 s; p14 n = 8 takes about 6 MB.  p22
# files pass up to n = 7 (1.48-1.74 MB), parsed in 0.2 s before LP_CELL_GUARD
# refuses them past n = 4
LP_FILE_BYTE_GUARD = 2 ** 21
# the response-table cells of one random model (80 MB of float64)
HIDDEN_PRODUCT_GUARD = 10 ** 7
# deterministic strategy tuples, 4**(n+1) for both kinds: n <= 8
STRATEGY_SPACE_GUARD = 10 ** 6
# a Monte-Carlo sweep's trials x drawn cells per trial, plus, in n-local
# sweeps, SWEEP_TRIAL_CELLS per trial and SWEEP_PARTY_CELLS per party and
# block of trials.  The largest sweep admitted takes 1.3-6.5 s at n = 2, 40,
# 200 and 1000 (K = 1 to 4; n = 2 the longest), and 1.4-5.0 s in mixture
# sweeps (whole process)
SWEEP_CELL_GUARD = 10 ** 8
# each trial's fixed work in an n-local sweep, its PCG64 generator and its one
# in-place draw: 1.8-2.2 us, 2.7 us a trial in all at n = 2, K = 1 (14
# cells).  A drawn cell costs about 26 ns (a least-squares fit of sweep times
# over n = 2..1000, K = 1..4), so the fixed work is as long as 70-85 cells;
# 32 dates from 4.4-5.4 us against 0.15-0.2 us a cell and is kept, so the
# guard refuses the same sweeps as before.  The smallest models therefore
# run longest at the budget (n = 2, K = 1: 14 cells)
SWEEP_TRIAL_CELLS = 32
# each party's fixed work in an n-local sweep, paid once per block of trials:
# about 2.1 us by the same fit, as long as about 80 drawn cells.  256 dates
# from 40-55 us, before each response table was reduced ahead of its source,
# and is kept likewise, so long chains with small K are priced above their cost
# (n = 1000, K = 1: 5004 cells, three trials a block, 1.3 s at the budget)
SWEEP_PARTY_CELLS = 256
# figure4, tightness and montecarlo cost is linear in n, an equal-profile threshold
# search quadratic (n + 1 interpolation nodes, each a sweep of the chain): at n = 1000,
# 0.15-0.28 s for that search, 0.04 s for a tightness model and its I and J, and
# 0.45-0.58 s for figure4 at its default grid (in-process)
CHAIN_LENGTH_GUARD = 1000
# figure4's n x grid points: the default grid's 21 points at the longest chain
GRID_POINT_GUARD = 21 * CHAIN_LENGTH_GUARD


def check_size(cost, budget: int, what: str) -> None:
    """Raise SizeGuardError if cost exceeds budget.  The message states what
    (the request's own arguments and the quantity counted) and the budget,
    never the cost, which may be infinite or too long for str() to print."""
    if cost > budget:
        raise SizeGuardError(f"{what}, over {budget}")
