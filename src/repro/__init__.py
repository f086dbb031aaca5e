"""Reproduction of ESSAT: Efficient Power Management based on Application
Timing Semantics for Wireless Sensor Networks (Chipara, Lu, Roman).

The package is organised as:

* :mod:`repro.sim` -- discrete-event simulation engine,
* :mod:`repro.net` -- topology, wireless channel, packets, nodes,
* :mod:`repro.radio` -- radio state machine and energy/duty-cycle model,
* :mod:`repro.mac` -- CSMA/CA MAC layer,
* :mod:`repro.routing` -- routing-tree construction and repair after a
  node failure,
* :mod:`repro.query` -- periodic query service with in-network aggregation,
* :mod:`repro.core` -- the ESSAT contribution: Safe Sleep plus the NTS, STS
  and DTS traffic shapers,
* :mod:`repro.baselines` -- SYNC, PSM and SPAN comparison protocols,
* :mod:`repro.experiments` -- scenario configs, metrics, and the per-figure
  reproduction harness,
* :mod:`repro.orchestrator` -- parallel sweep execution with a
  content-addressed result store (``--jobs`` / ``--cache-dir``).

Import every name from the module that defines it, e.g.
``from repro.core.protocol import EssatProtocolSuite``: each package's
``__init__`` is only its docstring.  Importing a module therefore loads
only what it uses, and the runner imports a protocol's code only when it
builds that protocol.  A warm ``repro figure fig3`` replay loads 53
``repro`` modules and no protocol; when the packages re-exported their
submodules it loaded 89.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
