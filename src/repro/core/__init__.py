"""ESSAT core: the paper's contribution.

* :class:`~repro.core.safe_sleep.SafeSleep` -- the local sleep scheduler,
* :class:`~repro.core.nts.NoTrafficShaping`,
  :class:`~repro.core.sts.StaticTrafficShaper`,
  :class:`~repro.core.dts.DynamicTrafficShaper` -- the three traffic shapers,
* :class:`~repro.core.protocol.EssatProtocolSuite` -- NTS-SS / STS-SS /
  DTS-SS assembled over a network; its ``fail_node`` is the failure
  handling of Section 4.3,
* :mod:`~repro.core.analysis` -- the closed-form models (Equations 1-3).
"""
