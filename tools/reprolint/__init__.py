"""reprolint — concurrency- and resource-safety static analysis.

A self-contained (stdlib-``ast``) lint suite enforcing the invariants the
extraction service's comments used to merely describe:

* **RL1xx lock discipline** — attributes annotated
  ``# reprolint: guarded-by(<lock>)`` may only be touched under
  ``with self.<lock>:`` or in a ``# reprolint: holds(<lock>)`` method;
* **RR2xx resource leak paths** — every ``SharedMemory`` / ``np.memmap`` /
  ``sqlite3.connect`` / ``ProcessPoolExecutor`` / scratch-file creation
  must reach a release on all control-flow paths (try/finally aware),
  with ``# reprolint: owned-by(...)`` for lifetime transfers;
* **RP300 pickle trust boundary** — ``pickle.load(s)`` only in
  allowlisted modules.

Run it as ``python -m tools.reprolint src/ tests/ benchmarks/``; see
``--explain RULE`` for the catalogue and suppression syntax.
"""

from __future__ import annotations

from .diagnostics import Diagnostic
from .engine import lint_paths, lint_source
from .rules import RULES, explain

__all__ = ["Diagnostic", "lint_source", "lint_paths", "RULES", "explain"]
