"""Scenario families: named experiment setups beyond the paper.

The paper evaluates one deployment shape (80 nodes uniform-random in a
square).  This package opens that axis with named scenario families --
clustered hot-spots, corridor chains, density/size sweeps, heterogeneous
radio profiles, scheduled node churn, channel realism -- each of which
expands into plain :class:`~repro.experiments.config.ScenarioConfig`
objects and therefore sweeps, caches, and resumes through
:mod:`repro.orchestrator` with no family-specific execution code.

* :mod:`repro.scenarios.families` -- the family types and the built-in
  ``FAMILIES`` table, a plain mapping;
* :mod:`repro.scenarios.run` -- :func:`~repro.scenarios.run.run_family`,
  which runs one family as a single orchestrated sweep.

Usage::

    from repro.scenarios.run import run_family
    result = run_family("churn", protocols=["DTS-SS", "SPAN"], jobs=4)
    print(result.table())

or from the command line: ``python -m repro.cli scenarios list`` /
``python -m repro.cli scenarios run churn``.  Every name is imported from
the module that defines it; this package exports nothing.
"""
