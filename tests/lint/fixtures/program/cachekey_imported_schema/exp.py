# repro-lint: module=repro.experiments.mini
"""REPRO201 fixture: a spec whose ``cache_schema`` is imported.

Parse-only: never imported.
"""

from repro.experiments.minicells import SCHEMA, build_cells
from repro.pipeline.spec import ExperimentSpec

SPEC = ExperimentSpec(
    name="mini",
    build_cells=build_cells,
    cache_schema=SCHEMA,
)
