"""simlint: FreeFlow-repro-aware static analysis and runtime sanitizers.

Three complementary pieces (the advertised rule range is derived from
the registry — see :func:`repro.analysis.rules.rule_range`):

* :mod:`repro.analysis.core` + :mod:`repro.analysis.rules` — the static
  analyzer behind ``python -m repro lint`` (per-file rules plus the
  interprocedural wait/credit pass in
  :mod:`repro.analysis.waitgraph`/:mod:`repro.analysis.callgraph`,
  inline pragmas, a fingerprint baseline for ``--fail-on-new`` CI
  gating);
* :mod:`repro.analysis.sanitizer` — runtime invariant checks armed by
  ``REPRO_SANITIZE=1`` or :func:`repro.analysis.sanitizer.install`,
  catching dynamically what the AST cannot see (events scheduled in the
  past, clock regressions, streaming-ring bytes minted or leaked);
* :mod:`repro.analysis.waitfor` — the runtime wait-for graph armed by
  ``REPRO_WAITFOR=1``: every parked process records what it waits on
  and who can fire it, lock cycles raise
  :class:`~repro.errors.DeadlockDetected` at park time, and an engine
  that goes idle with parked processes dumps the ownership chain
  instead of hanging silently.

This package is imported lazily by ``repro/__main__.py`` and the
sanitizer/wait-for hooks; importing :mod:`repro` alone never pays for
it.
"""

from .core import Finding, lint_paths, lint_source
from .rules import ALL_RULES, RULES_BY_CODE, rule_range

__all__ = [
    "Finding",
    "lint_paths",
    "lint_source",
    "ALL_RULES",
    "RULES_BY_CODE",
    "rule_range",
]
