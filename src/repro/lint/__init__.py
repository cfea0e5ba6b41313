"""Determinism & concurrency static analysis for the repro tree.

The paper's confidence-in-correctness results are only trustworthy if
every run is bit-reproducible — and the parallel experiment runtime
makes that contract load-bearing (a cell must be byte-identical whether
it ran inline or in a worker process).  This package enforces the
contract statically, with six AST rules:

========  =====================  =========================================
ID        name                   catches
========  =====================  =========================================
REPRO101  rng-discipline         RNG construction / module-level random.*
                                 outside ``repro.common.seeding``
REPRO102  wall-clock-ban         host-clock reads in simulated-time code
REPRO103  pool-hygiene           unpicklable or state-sharing cells
                                 submitted to ``repro.runtime.parallel``
REPRO104  unordered-iteration    set iteration order leaking into results
REPRO105  float-accumulation     order-sensitive ``sum()`` in stats paths
REPRO106  paper-parameter-       inline duplicates of ``paper_params``
          literal                constants
========  =====================  =========================================

On top of the per-file rules, :mod:`repro.lint.program` builds a
whole-program model (symbol table, import graph, approximate call
graph, dataflow summaries) and checks four *interprocedural*
invariants — the cross-module consistency bugs per-file analysis
cannot see:

=========  ======================  ====================================
REPRO201   cache-key-              result-influencing cell parameters
           completeness            absent from cache keys / schemas
REPRO202   rng-stream-escape       Generator streams crossing parallel
                                   cell boundaries
REPRO203   envelope-sync           columnar fallback slugs, resolver
                                   table, and counters drifting apart
REPRO204   obs-name-drift          undeclared metric/trace-event names
=========  ======================  ====================================

Run the per-file rules with ``python -m repro.lint src/`` and the
whole-program rules with ``python -m repro.lint --program src/repro``;
suppress a deliberate exception with a line comment
``# repro-lint: disable=REPROxxx``, or ratchet pre-existing program
findings with ``--write-baseline`` / ``--baseline``.

The package re-exports nothing: import from the submodules
(:mod:`repro.lint.engine` for ``run_lint`` / ``run_program_lint`` /
``lint_paths``, :mod:`repro.lint.rules`, :mod:`repro.lint.program`,
:mod:`repro.lint.config`).  Every result-cache key reads
:data:`repro.lint.version.LINT_VERSION`, so importing this package must
stay free of the analysis machinery.
"""
