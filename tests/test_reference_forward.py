"""The production forward equals its elementary-op reference byte for byte.

Each fused op is proven equal to its chain on its own in test_numerics; this
proves their composition in ``trainer.forward_losses``: every loss term's
value and every leaf gradient, of the composite loss and of each term.
"""

from dataclasses import replace

import numpy as np
import pytest

from weakdet import numerics as nm
from weakdet.gradcheck import check_config
from weakdet.trainer import MODULE_NAMES, SUB_METHODS, forward_losses, init_state

from conftest import make_bag
from reference_forward import reference_forward_losses

K, D = 3, 5


def _case(method, m, ema):
    rng = np.random.default_rng(4100 + m)
    # One proposal gets exactly one positive tag: approx_labels cannot give
    # one instance to several tagged classes.
    bag = make_bag(rng, m=m, n_classes=K, feature_dim=D, n_pos=1 if m == 1 else None)
    cfg = replace(check_config(m), hidden_dim=3, embed_dim=2, modules=SUB_METHODS[method],
                  corr_sem_ema=ema)
    state = init_state(cfg, K, D)
    state.corr_buffer = np.eye(K) + 0.1 * rng.standard_normal((K, K))
    return bag, state, cfg


def _bytes(node):
    return np.ascontiguousarray(node.value).tobytes()


def _grads(leaves):
    return {name: None if leaf.grad is None else leaf.grad.tobytes()
            for name, leaf in leaves.items()}


@pytest.mark.parametrize("method", sorted(SUB_METHODS))
@pytest.mark.parametrize("phase_mode", ("fused", "sequential"))
@pytest.mark.parametrize("ema", (0.0, 0.5))
@pytest.mark.parametrize("m", (1, 8))
def test_forward_equals_its_elementary_reference(method, phase_mode, ema, m):
    bag, state, cfg = _case(method, m, ema)
    masks = [None] if phase_mode == "fused" else [
        frozenset({name}) for name in MODULE_NAMES if name in cfg.modules
    ]
    for include in masks:
        fwd = forward_losses(bag, state, cfg, include=include)
        loss, terms, leaves = reference_forward_losses(bag, state, cfg, include=include)
        assert list(fwd.terms) == list(terms), include
        assert _bytes(fwd.loss) == _bytes(loss), include
        for name, term in terms.items():
            assert _bytes(fwd.terms[name]) == _bytes(term), (include, name)
        assert sorted(fwd.leaves) == sorted(leaves), include
        nm.backward(fwd.loss)
        nm.backward(loss)
        assert _grads(fwd.leaves) == _grads(leaves), include
        for name in terms:
            fwd = forward_losses(bag, state, cfg, include=include)
            _, ref_terms, ref_leaves = reference_forward_losses(bag, state, cfg, include=include)
            nm.backward(fwd.terms[name])
            nm.backward(ref_terms[name])
            assert _grads(fwd.leaves) == _grads(ref_leaves), (include, name)
