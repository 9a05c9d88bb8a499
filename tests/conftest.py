import struct

import numpy as np
import pytest

import linkmark as lm
from linkmark.util import pin_blas_threads

# results depend bitwise on the BLAS thread count; every test runs at one
pin_blas_threads()

# one PASS/FAIL line per acceptance criterion, echoed after the run
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def toy_graph():
    """Two-block SBM with features, small enough for per-test training."""
    g = lm.generate_sbm(2, 50, 0.3, 0.02, seed=7)
    return lm.init_features(g, 16, seed=8)


@pytest.fixture(scope="session")
def toy_dataset(toy_graph):
    return lm.split_links(toy_graph, (0.8, 0.1, 0.1), seed=9)


@pytest.fixture(scope="session")
def toy_batches(toy_dataset):
    out = {}
    for split in ("train", "valid", "test"):
        pairs, labels = toy_dataset.split_arrays(split)
        out[split] = lm.PairBatch(toy_dataset.mp_adjacency, toy_dataset.features,
                                  pairs, labels)
    return out


@pytest.fixture(scope="session")
def toy_watermark(toy_graph):
    return lm.gen_node_rep_wm(toy_graph, 0.1, seed=11)


@pytest.fixture(scope="session")
def toy_config():
    return lm.TrainConfig(epochs=200, learning_rate=1e-3, hidden_dim=32, seed=5)


@pytest.fixture(scope="session")
def watermarked_model(toy_batches, toy_watermark, toy_config):
    model = lm.LinkPredictor.init("gcn", 16, 32, seed=5)
    lm.embed_interleaved(model, toy_batches["train"], toy_watermark.batch(), toy_config)
    return model


@pytest.fixture(scope="session")
def clean_model(toy_batches, toy_config):
    model = lm.LinkPredictor.init("gcn", 16, 32, seed=5)
    lm.train_clean(model, toy_batches["train"], toy_config)
    return model


# checkpoints that LinkPredictor.load must refuse with ValueError
BAD_CHECKPOINTS = {
    "truncated_header": b"GLPW1\x00\x01",
    "unknown_arch_code": b"GLPW1" + struct.pack("<BII", 7, 2, 2) + bytes(64),
    # 78 bytes that declare 65536 x 65536 encoder weights: 32 GiB
    "dims_past_end": b"GLPW1" + struct.pack("<BII", 0, 65536, 65536) + bytes(64),
}


def edge_set(edges) -> set:
    """The rows of an E x 2 edge array as a set of (u, v) int tuples."""
    return {(int(u), int(v)) for u, v in np.asarray(edges).reshape(-1, 2)}


def random_params(model, rng, scale=0.5):
    """Generic (kink-free with the chosen seeds) parameters for FD checks."""
    for name in model.params:
        model.params[name][...] = rng.normal(0.0, scale, size=model.params[name].shape)
    return model


def finite_difference_grads(model, batch, step=1e-5):
    from linkmark.nn import loss_and_grads

    _, grads = loss_and_grads(model, batch)
    grads = model.views(grads)
    numeric = {}
    for name in grads:
        flat = model.params[name].ravel()
        num = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up, _ = loss_and_grads(model, batch)
            flat[i] = orig - step
            down, _ = loss_and_grads(model, batch)
            flat[i] = orig
            num[i] = (up - down) / (2.0 * step)
        numeric[name] = num.reshape(model.params[name].shape)
    return grads, numeric


def max_rel_err(grads, numeric):
    worst = 0.0
    for name in grads:
        denom = max(np.linalg.norm(numeric[name]), 1e-8)
        worst = max(worst, np.linalg.norm(grads[name] - numeric[name]) / denom)
    return worst
