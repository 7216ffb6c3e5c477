"""The float32 contract: a float32 model stays float32 end to end.

CGX compresses an fp32 gradient pipeline.  A numpy float64 *scalar*
multiplied into a float32 activation promotes the result to float64
(NEP 50), and the widening then spreads through every later layer; the
gradients only return to float32 because ``Parameter.accumulate_grad``
casts them.  These tests run one ``train_step`` per model family with
every module's ``forward`` and ``backward`` wrapped, and fail if any
of them returns float64.
"""

import numpy as np
import pytest

from repro.nn import MODEL_FAMILIES
from repro.nn import functional as F
from repro.training import DataParallelTrainer, get_recipe, make_task


def _watch_dtypes(model, seen: list) -> None:
    """Record (module path, class, method) for every float64 output."""
    for prefix, module in model.named_modules():
        for method in ("forward", "backward"):
            inner = getattr(module, method)

            def wrapped(*args, _inner=inner, _where=(prefix or "<root>",
                                                     type(module).__name__,
                                                     method)):
                out = _inner(*args)
                if isinstance(out, np.ndarray) and out.dtype == np.float64:
                    seen.append(_where)
                return out

            setattr(module, method, wrapped)


@pytest.mark.parametrize("family", sorted(MODEL_FAMILIES))
def test_train_step_keeps_every_module_output_float32(family):
    recipe = get_recipe(family)
    task = make_task(family, batch_size=4, **recipe.kwargs())
    trainer = DataParallelTrainer(task, world_size=2, recipe=recipe, seed=0)
    widened: list = []
    for replica in trainer.replicas:
        _watch_dtypes(replica, widened)
    loss = trainer.train_step()
    assert np.isfinite(loss)
    assert not widened, (f"{family}: {len(widened)} float64 outputs, first "
                         f"{sorted(set(widened))[:5]}")


_X = np.random.default_rng(0).normal(size=(3, 7)).astype(np.float32)
_G = np.random.default_rng(1).normal(size=(3, 7)).astype(np.float32)


@pytest.mark.parametrize("name,op", [
    ("relu", lambda: F.relu(_X)),
    ("gelu", lambda: F.gelu(_X)),
    ("gelu_backward", lambda: F.gelu_backward(_G, _X)),
    ("tanh", lambda: F.tanh(_X)),
    ("sigmoid", lambda: F.sigmoid(_X)),
    ("softmax", lambda: F.softmax(_X)),
    ("softmax_backward", lambda: F.softmax_backward(_G, F.softmax(_X))),
    ("log_softmax", lambda: F.log_softmax(_X)),
])
def test_functional_ops_return_float32_for_float32_input(name, op):
    assert op().dtype == np.float32, name
