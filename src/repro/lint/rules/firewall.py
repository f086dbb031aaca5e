"""REP100: the layer firewall -- simulation code must not import
orchestration code."""

from __future__ import annotations

from typing import List

from ..base import ProjectChecker, register
from ..findings import Finding
from ..graph import ProjectGraph
from ..layers import Layer, firewall_exemption


@register
class LayerFirewallChecker(ProjectChecker):
    """No simulation package may import an orchestration package.

    **Invariant.** Modules in the simulation layer (``sim``/``net``/
    ``mac``/``radio``/``routing``/``query``/``core``/``baselines``/
    ``scenarios``) must not import modules in the orchestration layer
    (``orchestrator``/``obs``/``experiments``/``cli``/``lint``/
    ``sanitizer``) at module level.  Orchestration
    code may time things, read the environment, and touch host-dependent
    facilities precisely *because* nothing under the simulated clock
    depends on it; one import in the wrong direction and that separation
    -- which every file-local rule's allow-list assumes -- silently
    dissolves.  The finding prints the violating import chain (how deep
    in the simulation layer the import is reachable from), because the
    hazard is rarely the importing file itself: it is every simulation
    module upstream of it.

    **Sanctioned idiom.** Architectural edges that are allowed on purpose
    live in :data:`repro.lint.layers.FIREWALL_EXEMPT_EDGES` with a written
    reason (e.g. ``scenarios`` -> ``experiments``: families are
    declarative plans over ``ScenarioConfig``).  ``TYPE_CHECKING``-guarded
    imports are skipped -- they never execute.  Anything else: invert the
    dependency (define the protocol in the simulation layer, implement it
    in orchestration) or move the module across the wall.
    """

    code = "REP100"
    name = "layer-firewall"

    def check_project(self, graph: ProjectGraph) -> List[Finding]:
        findings: List[Finding] = []
        for name in sorted(graph.modules):
            module = graph.modules[name]
            if module.layer is not Layer.SIMULATION:
                continue
            for edge in module.imports:
                if not edge.toplevel or edge.type_only:
                    continue
                target = graph.modules.get(edge.target)
                if target is None or target.layer is not Layer.ORCHESTRATION:
                    continue
                if firewall_exemption(module.relative, target.package) is not None:
                    continue
                chain = graph.import_chain_to(module)
                rendered = " -> ".join(chain + [target.name])
                findings.append(
                    self.project_finding(
                        module.path,
                        edge.lineno,
                        edge.col,
                        (
                            f"simulation module `{module.name}` imports "
                            f"orchestration module `{target.name}` "
                            f"(firewall chain: {rendered}); invert the "
                            "dependency or add a reviewed exemption to "
                            "FIREWALL_EXEMPT_EDGES"
                        ),
                    )
                )
        return findings
