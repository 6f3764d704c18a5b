"""Amazon S3 price book (April 2011) and the paper's cost model.

Sec. IV-E: "these prices are (in US dollars): $0.14 per GB·month for
storage, $0.10 per GB for upload data transfer and $0.01 per 1000 upload
requests", and the monthly cost of a backup service is::

    CC = DS/DR · (SP + TP) + OC · OP

where ``DS/DR`` is the post-dedup stored/transferred volume and ``OC``
the number of upload requests.  :class:`PriceBook` keeps the constants
and evaluates the bill from raw byte/request counts, as a total or as a
:class:`CostBreakdown` that shows where the money goes (the request
column is what container aggregation wins).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import GB

__all__ = ["CostBreakdown", "PriceBook", "S3_APRIL_2011"]


@dataclass(frozen=True)
class CostBreakdown:
    """A bill split into the three S3 components (USD)."""

    storage: float
    transfer: float
    requests: float

    @property
    def total(self) -> float:
        """Sum of all components."""
        return self.storage + self.transfer + self.requests


@dataclass(frozen=True)
class PriceBook:
    """Cloud tariff: storage, upload transfer, and request prices."""

    #: $/GB/month of stored data (decimal GB, as billed).
    storage_per_gb_month: float = 0.14
    #: $/GB of upload transfer.
    upload_per_gb: float = 0.10
    #: $ per 1000 upload (PUT) requests.
    per_1000_put_requests: float = 0.01

    def storage_cost(self, stored_bytes: float, months: float = 1.0) -> float:
        """Monthly storage charge for ``stored_bytes`` kept ``months``."""
        return (stored_bytes / GB) * self.storage_per_gb_month * months

    def transfer_cost(self, uploaded_bytes: float) -> float:
        """Upload bandwidth charge."""
        return (uploaded_bytes / GB) * self.upload_per_gb

    def request_cost(self, put_requests: int) -> float:
        """PUT request charge."""
        return (put_requests / 1000.0) * self.per_1000_put_requests

    def breakdown(self, stored_bytes: float, uploaded_bytes: float,
                  put_requests: int, months: float = 1.0) -> CostBreakdown:
        """The paper's ``CC``, component by component."""
        return CostBreakdown(
            storage=self.storage_cost(stored_bytes, months),
            transfer=self.transfer_cost(uploaded_bytes),
            requests=self.request_cost(put_requests))

    def monthly_cost(self, stored_bytes: float, uploaded_bytes: float,
                     put_requests: int, months: float = 1.0) -> float:
        """The paper's ``CC`` for one month of service."""
        return self.breakdown(stored_bytes, uploaded_bytes, put_requests,
                              months).total


#: The tariff quoted in the paper (April 2011).
S3_APRIL_2011 = PriceBook()
