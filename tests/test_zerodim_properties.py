"""Property test of the scalar damage step; skipped without hypothesis."""

from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from amfrac.zerodim import z_step  # noqa: E402
from oracles import ref_z_step, z_step_bits  # noqa: E402

# the scheme's range, and any float, NaN and +-inf included
value = st.one_of(st.floats(0.0, 3.0), st.floats())


@settings(max_examples=1000, deadline=None)
@given(u=value, z_prev=value, rho=value,
       # a stand-in with the three fields z_step reads, so that values the
       # model rejects still reach the step
       model=st.builds(SimpleNamespace, a=value, kappa_E=value,
                       kappa_R=value))
def test_z_step_is_the_builtin_evaluation(u, z_prev, rho, model):
    assert z_step_bits(z_step, u, z_prev, rho, model) == \
        z_step_bits(ref_z_step, u, z_prev, rho, model)
