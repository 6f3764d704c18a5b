"""Hypothesis strategies shared by the property tests.

:func:`legal_scheme_configs` draws only configurations the constructor
accepts, by construction rather than by filtering: a scheme, then the
engine features that scheme can run.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.baselines import all_scheme_configs
from repro.chunking import CDC_FAMILY
from repro.util.units import KIB


@st.composite
def legal_scheme_configs(draw):
    """A legal :class:`~repro.core.options.SchemeConfig`: one of the five
    schemes with a drawn combination of the features it can run."""
    config = draw(st.sampled_from(all_scheme_configs()))
    changes = dict(
        index_layout=draw(st.sampled_from(["app", "global", "tier"])),
        pipeline_uploads=draw(st.booleans()),
        use_containers=draw(st.booleans()),
        container_size=draw(st.sampled_from([4 * KIB, 64 * KIB])),
    )
    if not config.incremental_only:
        changes.update(
            encrypt_chunks=draw(st.booleans()),
            stat_cache=draw(st.booleans()),
            parallel_workers=draw(st.sampled_from([1, 2])),
        )
        if any(policy.chunker in CDC_FAMILY
               for policy in config.policy_table.values()):
            chunker = draw(st.sampled_from((None,) + CDC_FAMILY))
            if chunker is not None:
                config = config.with_chunker(chunker)
    return config.with_(**changes)
