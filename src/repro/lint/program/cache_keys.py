"""REPRO201: cache-key completeness for experiment cells.

The result cache replays a cell whenever its key matches, so every
result-influencing cell parameter must be folded into the key — and the
spec's ``cache_schema`` must name exactly the fields the keys carry.
PR 5 added a ``backend`` kwarg that changed which code computed a cell
without adding it to the keys; stale event-path results then satisfied
columnar-path lookups.  This rule catches that shape statically, two
ways:

**Site check** — at every ``CellSpec(...)`` construction, each kwarg
that (a) is not observability plumbing, (b) is not a pure constant, and
(c) does not share dataflow provenance with any cache-key value must be
flagged.  Provenance is compared through :mod:`~.dataflow.expand_refs`,
so renames (``detection_name=name`` keyed as ``detection=name``) and
transforms (``profile=repr(profile)``, ``scenario=scenario.name``) are
recognised as coverage.

**Schema check** — for every registered non-composite
:class:`ExperimentSpec`, the ``cache_schema`` must equal the union of
key-field names over every ``CellSpec`` site reachable from its
``build_cells`` entry (through the approximate call graph, factory
closures included).  Schema drift in either direction is a finding.
"""

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.program.base import ProgramRule
from repro.lint.program.dataflow import (
    expand_refs,
    names_loaded,
    string_tuple,
)
from repro.lint.program.model import FunctionInfo, ProgramModel
from repro.lint.program.sites import (
    CellSite,
    collect_cell_sites,
    sites_under,
)


class CacheKeyCompletenessRule(ProgramRule):
    rule_id = "REPRO201"
    name = "cache-key-completeness"
    description = (
        "every result-influencing cell parameter must reach the cache "
        "key, and cache_schema must match the keys cells actually build"
    )

    def check(
        self, model: ProgramModel, config: LintConfig
    ) -> Iterator[Finding]:
        sites = collect_cell_sites(model, config)
        for site in sites:
            yield from self._check_site(site, config)
        for spec in _registered_specs(model, config):
            yield from self._check_schema(model, config, spec, sites)

    def _check_site(
        self, site: CellSite, config: LintConfig
    ) -> Iterator[Finding]:
        if site.key_is_none and site.key_entries is None:
            return  # explicitly uncached cell
        if site.kwargs_entries is None or site.key_entries is None:
            return  # dynamically built: out of static reach
        key_names = set(site.key_names())
        key_refs: Set[str] = set()
        for _, value in site.key_entries:
            key_refs |= expand_refs(names_loaded(value), site.assignments)
        imports = site.owner.imports
        for name, value in site.kwargs_entries:
            if name in config.cell_observability_params:
                continue
            if name in key_names:
                continue
            # Kwarg-side expansion is one hop only: it recognises a
            # local alias (``backend=cell_backend`` keyed through the
            # same alias) without crediting coverage through unrelated
            # second-order derivations — a value computed *from* the
            # trace path must not count as covered merely because the
            # path string interpolates keyed loop variables.  Key-side
            # expansion stays deep: everything the key transitively
            # derives from genuinely is key provenance.
            refs = {
                ref
                for ref in expand_refs(
                    names_loaded(value), site.assignments, depth=1
                )
                if not imports.binds(ref)
            }
            if not refs:
                continue  # constant-only value: not a swept parameter
            if refs & key_refs:
                continue
            yield site.owner.finding(
                value,
                self.rule_id,
                f"cell kwarg {name!r} influences the result but shares "
                f"no dataflow with the cache key "
                f"(key fields: {', '.join(sorted(key_names)) or 'none'})",
            )

    def _check_schema(
        self,
        model: ProgramModel,
        config: LintConfig,
        spec: "_SpecRegistration",
        sites: List[CellSite],
    ) -> Iterator[Finding]:
        if spec.schema is None or spec.builder is None:
            return
        reachable = model.reachable(spec.builder)
        produced: Set[str] = set()
        keyed_sites = 0
        for site in sites_under(sites, reachable):
            if site.key_entries is None:
                continue
            keyed_sites += 1
            produced |= set(site.key_names())
        if not keyed_sites:
            return  # nothing statically keyed under this builder
        schema = set(spec.schema)
        missing = sorted(produced - schema)
        if missing:
            yield spec.owner_finding(
                self.rule_id,
                f"cache_schema of spec {spec.name!r} is missing key "
                f"field(s) {', '.join(missing)} that its cells produce",
            )
        stale = sorted(schema - produced)
        if stale:
            yield spec.owner_finding(
                self.rule_id,
                f"cache_schema of spec {spec.name!r} declares field(s) "
                f"{', '.join(stale)} that no reachable cell key produces",
            )


class _SpecRegistration:
    """One ``ExperimentSpec(...)`` call with its statically-known parts."""

    def __init__(
        self,
        call: ast.Call,
        owner_info,
        name: str,
        builder: Optional[FunctionInfo],
        schema: Optional[List[str]],
    ) -> None:
        self.call = call
        self.owner = owner_info
        self.name = name
        self.builder = builder
        self.schema = schema

    def owner_finding(self, rule_id: str, message: str) -> Finding:
        return self.owner.finding(self.call, rule_id, message)


def _registered_specs(
    model: ProgramModel, config: LintConfig
) -> List["_SpecRegistration"]:
    specs: List[_SpecRegistration] = []
    for module_name in sorted(model.modules):
        info = model.modules[module_name]
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            scope = model.enclosing_function(node, info)
            qualname = scope.qualname if scope is not None else ""
            resolved = model.resolve_call_name(node, info, qualname)
            if resolved is None:
                continue
            if model.canonical(resolved) != config.spec_symbol:
                continue
            keywords: Dict[str, ast.expr] = {
                keyword.arg: keyword.value
                for keyword in node.keywords
                if keyword.arg is not None
            }
            if "composite" in keywords:
                continue  # composite specs orchestrate, they don't key
            name_expr = keywords.get("name")
            name = (
                name_expr.value
                if isinstance(name_expr, ast.Constant)
                and isinstance(name_expr.value, str)
                else "<unknown>"
            )
            specs.append(
                _SpecRegistration(
                    call=node,
                    owner_info=info,
                    name=name,
                    builder=_resolve_builder(
                        model, info, qualname, keywords.get("build_cells")
                    ),
                    schema=_resolve_schema(
                        model, info, keywords.get("cache_schema")
                    ),
                )
            )
    return specs


def _resolve_builder(
    model: ProgramModel,
    info,
    qualname: str,
    expr: Optional[ast.expr],
) -> Optional[FunctionInfo]:
    """The function ``build_cells`` names — directly or via a factory.

    A factory call (``build_cells=_figure_builder("fig7", ...)``)
    resolves to the factory: its closures, and everything they call,
    are inside its node, so reachability walks them.
    """
    if expr is None:
        return None
    if isinstance(expr, ast.Name):
        resolved = model.resolve_name(expr.id, info, qualname)
    elif isinstance(expr, ast.Call):
        resolved = model.resolve_call_name(expr, info, qualname)
    else:
        return None
    if resolved is None:
        return None
    return model.functions.get(resolved)


def _resolve_schema(
    model: ProgramModel, info, expr: Optional[ast.expr]
) -> Optional[List[str]]:
    """``cache_schema`` field names: a tuple literal or a module
    constant, the module's own or one it imports from the program."""
    if expr is None:
        return None
    direct = string_tuple(expr)
    if direct is not None:
        return direct
    if isinstance(expr, ast.Name):
        assigned = model.module_assignments(info).get(expr.id)
        if assigned is None and info.imports.binds(expr.id):
            module, _, name = model.canonical(
                info.imports.resolve(expr.id)
            ).rpartition(".")
            owner = model.modules.get(module)
            if owner is not None:
                assigned = model.module_assignments(owner).get(name)
        if assigned is not None:
            return string_tuple(assigned)
    return None
