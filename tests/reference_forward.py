"""The training forward built from elementary ops only.

Each fused op of ``numerics`` names, in its docstring, the chain of
elementary ops it replaces; the ``chain_*`` functions below are those chains.
:func:`reference_forward_losses` is ``trainer.forward_losses`` with every
fused op replaced by its chain, in the same creation order, so its loss
terms and leaf gradients must equal the production forward's byte for byte.
The discrete selections (induced labels, pseudo-labels, both graphs) are
made from the reference's own values, exactly as the production forward
makes them.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from weakdet import igcl as gc
from weakdet import instance_branch as ib
from weakdet import numerics as nm
from weakdet import semantic_branch as sb
from weakdet.instance_branch import SCORE_EPS
from weakdet.numerics import Node


def chain_propagate(a_hat, h, w):
    return nm.matmul(a_hat, nm.matmul(h, w))


def chain_propagate_unit(a_hat, h, w):
    return nm.normalize_rows(chain_propagate(a_hat, h, w), strict=False)


def chain_info_nce(x, y, tau):
    sim = nm.scale(nm.matmul(x, nm.transpose(y)), tau)
    return nm.mean(nm.sub(nm.logsumexp_rows(sim), nm.diag_part(sim)))


def chain_pearson_cols(z, var_eps):
    """The 12-node correlation (16 with a degenerate column) that
    ``pearson_cols`` replaces."""
    z = nm.as_node(z)
    m = z.value.shape[0]
    centered = nm.center_cols(z)
    cov = nm.scale(nm.matmul(nm.transpose(centered), centered), 1.0 / m)
    var = nm.diag_part(cov)
    ok = var.value > var_eps
    if ok.all():
        corr = nm.div(cov, nm.outer(nm.sqrt(var), nm.sqrt(var)))
    else:
        okf = ok.astype(np.float64)
        var_safe = nm.add(nm.mul(var, okf), 1.0 - okf)
        denom = nm.outer(nm.sqrt(var_safe), nm.sqrt(var_safe))
        corr = nm.mul(nm.div(cov, denom), np.outer(okf, okf))
        corr = nm.add(corr, np.diag(1.0 - okf))
    return nm.scale(nm.add(corr, nm.transpose(corr)), 0.5)


def chain_dual_softmax(cls, det):
    return nm.mul(nm.softmax_rows(cls), nm.softmax_cols(det))


def chain_matmul_nt(a, b):
    return nm.matmul(a, nm.transpose(b))


def chain_bce_plus_weighted_ce(corr_ins, cls_logits, bg_logits, tags, weights):
    """The 16-op, 4-constant instance loss that ``bce_plus_weighted_ce``
    replaces: the sum-pooled image scores and the joined (K+1)-way logits,
    then the loss."""
    image_scores = nm.sum_cols(corr_ins)
    s_logits = nm.hconcat(cls_logits, bg_logits)
    clamped = nm.clip(image_scores, SCORE_EPS, 1.0 - SCORE_EPS)
    pos = nm.mul(nm.log(clamped), tags)
    negv = nm.mul(nm.log(nm.sub(np.ones_like(tags), clamped)), 1.0 - tags)
    image_term = nm.neg(nm.total(nm.add(pos, negv)))
    instance_term = nm.neg(nm.total(nm.mul(nm.log_softmax_rows(s_logits), weights)))
    return nm.add(image_term, instance_term)


def chain_composite_loss(weighted, contrast, lam):
    """The adds and the scale that ``composite_loss`` replaces; a lone
    weighted term is the loss itself."""
    if contrast:
        weighted = [*weighted, nm.scale(reduce(nm.add, contrast), lam)]
    return reduce(nm.add, weighted)


def chain_cosine_center_loss(z, targets):
    cos = nm.sum_rows(nm.mul(nm.normalize_rows(z, strict=True), targets))
    return nm.sub(1.0, nm.mean(cos))


def _gcn(a_hat, h, w1, w2):
    return chain_propagate_unit(a_hat, nm.relu(chain_propagate(a_hat, h, w1)), w2)


def reference_forward_losses(bag, state, cfg, include=None):
    """``(loss, terms, leaves)`` of ``trainer.forward_losses(bag, state, cfg,
    include=include)``, from elementary ops only."""
    active = cfg.modules if include is None else (cfg.modules & include)
    need_gcl = bool({"M3", "M4"} & active)
    need_ins_branch = "M1" in active or (need_gcl and "M1" in cfg.modules)
    need_sem_branch = "M2" in active or (need_gcl and "M2" in cfg.modules)
    leaves: dict[str, Node] = {}

    def leaf(name):
        if name not in leaves:
            leaves[name] = Node(state.params[name])
        return leaves[name]

    def fixed(name):
        return nm.as_node(state.params[name])

    feats = nm.as_node(bag.features)
    terms: dict[str, Node] = {}
    weighted: list[Node] = []
    contrast: dict[str, Node] = {}

    if need_ins_branch:
        param = leaf if "M1" in active else fixed
        cls_logits = nm.matmul(feats, param("w_cls"))
        det_logits = nm.matmul(feats, param("w_det"))
        corr_ins = chain_dual_softmax(cls_logits, det_logits)
        bg_logits = nm.matmul(feats, param("w_bg"))
        approx = ib.approx_labels(corr_ins.value, bag.tags, cfg.label_ratio)
    if "M1" in active:
        m = approx.labels.size
        mask = np.zeros((m, bag.n_classes + 1))
        mask[np.arange(m), approx.labels] = approx.seed_weights
        tags = np.asarray(bag.tags, dtype=np.float64)
        l_ins = chain_bce_plus_weighted_ce(corr_ins, cls_logits, bg_logits, tags, mask)
        terms["loss_ins"] = nm.scale(l_ins, cfg.lambda_ins)
        weighted.append(terms["loss_ins"])

    if need_sem_branch:
        w_sem = (leaf if "M2" in active or (need_gcl and "M2" in cfg.modules) else fixed)("w_sem")
        z = chain_matmul_nt(feats, w_sem)
        if z.value.shape[0] >= 2:
            corr = chain_pearson_cols(z, sb.VAR_EPS)
        else:
            corr = nm.as_node(np.eye(z.value.shape[1]))
        if cfg.corr_sem_ema > 0.0:
            corr = nm.add(
                nm.scale(corr, 1.0 - cfg.corr_sem_ema), cfg.corr_sem_ema * state.corr_buffer
            )
        scores = chain_matmul_nt(z, corr)
        pseudo = np.argmax(scores.value, axis=1)
    if "M2" in active:
        selected = state.centers[pseudo]
        targets = selected / np.linalg.norm(selected, axis=1)[:, None]
        terms["loss_sem"] = nm.scale(chain_cosine_center_loss(z, targets), cfg.lambda_sem)
        weighted.append(terms["loss_sem"])

    if need_gcl:
        u = u_p = v = v_p = None
        if "M1" in cfg.modules:
            igraph = gc.build_instance_graph(bag.proposals, cfg.graph_iou)
            onehot = nm.as_node(gc.one_hot_labels(approx.labels, bag.n_classes + 1))
            u = _gcn(igraph, feats, leaf("gcn_ins_w1"), leaf("gcn_ins_w2"))
            u_p = _gcn(igraph, onehot, leaf("gcn_ins_p_w1"), leaf("gcn_ins_p_w2"))
        if "M2" in cfg.modules:
            sgraph = gc.build_semantic_graph(z.value, cfg.knn_k)
            v = _gcn(sgraph, z, leaf("gcn_sem_w1"), leaf("gcn_sem_w2"))
            v_p = _gcn(sgraph, scores, leaf("gcn_sem_p_w1"), leaf("gcn_sem_p_w2"))
        if "M4" in active:
            contrast = {"loss_con_sd": chain_info_nce(u, v, cfg.tau),
                        "loss_con_ds": chain_info_nce(u_p, v_p, cfg.tau)}
        else:
            contrast = {}
            if u is not None:
                contrast["loss_con_ins"] = chain_info_nce(u, u_p, cfg.tau)
            if v is not None:
                contrast["loss_con_sem"] = chain_info_nce(v, v_p, cfg.tau)
        terms.update(contrast)

    return chain_composite_loss(weighted, [*contrast.values()], cfg.lambda_igcl), terms, leaves
