"""Suite-wide test settings."""

import numpy as np
import pytest
from hypothesis import settings

from mkinterp.tensors import FeatureGram

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic; no deadline, because a shared
# machine's speed varies between runs.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


class _CountingV(np.ndarray):
    """A Gram's V that counts, in ``count[0]``, the (n, n) products ``V @ V.T`` formed from it.

    Views such as ``.T`` keep the class and the counter.  Every ufunc result,
    ``@`` included, is a plain ndarray, so a product of arrays computed from V
    (a Newton Hessian, say) is not counted.
    """

    def __array_finalize__(self, obj):
        self.count = getattr(obj, "count", None)
        self.rows = getattr(obj, "rows", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        plain = [x.view(np.ndarray) if isinstance(x, _CountingV) else x for x in inputs]
        out = getattr(ufunc, method)(*plain, **kwargs)
        if (ufunc is np.matmul and all(isinstance(x, _CountingV) for x in inputs)
                and out.shape == (self.rows, self.rows)):
            self.count[0] += 1
        return out


@pytest.fixture
def outer_gram_count(monkeypatch):
    """``[k]``, k the number of ``V @ V.T`` products formed so far from the V of
    any Gram that ``FeatureGram.from_model`` built in the test."""
    count = [0]
    build = FeatureGram.from_model.__func__

    def counting_build(cls, model, points):
        gram = build(cls, model, points)
        V = gram.V.view(_CountingV)
        V.count, V.rows = count, gram.n
        object.__setattr__(gram, "V", V)
        return gram

    monkeypatch.setattr(FeatureGram, "from_model", classmethod(counting_build))
    return count
