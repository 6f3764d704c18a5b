"""Bench output: fixed-width text tables (:mod:`repro.metrics.report`).

The paper's Sec. IV quantities each have one home elsewhere: DR and SC
on :class:`~repro.core.stats.SessionStats`, BWS and DT in
:mod:`repro.simulate.pipeline`, CC in :mod:`repro.cloud.pricing`,
energy in :mod:`repro.simulate.powermodel`; the paper evaluation
(:mod:`repro.trace`) computes DE from them.
"""

from repro.metrics.report import Table

__all__ = ["Table"]
