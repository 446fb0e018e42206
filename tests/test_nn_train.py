"""Tests for repro.nn.train — the trainer loop."""

import hashlib

import numpy as np
import pytest

from repro.nn.layers import BatchNorm2D, Dense, ReLU, Sequential
from repro.nn.models import FirstLayerConfig, build_lenet
from repro.nn.optim import SGD, ConstantLR
from repro.nn.train import Trainer, TrainingHistory


def _toy_problem(n=400, seed=0):
    """Linearly separable two-class blobs."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    return x, y


def _make_trainer(seed=0):
    model = Sequential([Dense(2, 16, seed=1), ReLU(), Dense(16, 2, seed=2)])
    optimizer = SGD(model.parameters(), momentum=0.9)
    return Trainer(model, optimizer, ConstantLR(0.05), seed=seed)


def test_training_learns_separable_problem():
    x, y = _toy_problem()
    trainer = _make_trainer()
    history = trainer.fit(x, y, epochs=10, batch_size=32, x_val=x, y_val=y)
    assert history.val_accuracy[-1] > 0.95
    assert history.train_loss[-1] < history.train_loss[0]


def test_history_shapes():
    x, y = _toy_problem()
    trainer = _make_trainer()
    history = trainer.fit(x, y, epochs=3, batch_size=32)
    assert history.epochs == 3
    assert len(history.train_accuracy) == 3
    assert history.val_accuracy == []  # no validation set supplied
    assert history.best_val_accuracy() == 0.0


def test_deterministic_under_seed():
    x, y = _toy_problem()
    a = _make_trainer(seed=3).fit(x, y, epochs=2, batch_size=32)
    b = _make_trainer(seed=3).fit(x, y, epochs=2, batch_size=32)
    assert a.train_loss == b.train_loss


def test_different_seed_different_shuffle():
    x, y = _toy_problem()
    a = _make_trainer(seed=1).fit(x, y, epochs=1, batch_size=32)
    b = _make_trainer(seed=2).fit(x, y, epochs=1, batch_size=32)
    assert a.train_loss != b.train_loss


def test_predict_logits_batching():
    x, y = _toy_problem(130)
    trainer = _make_trainer()
    logits = trainer.predict_logits(x, batch_size=32)
    assert logits.shape == (130, 2)


def test_evaluate_range():
    x, y = _toy_problem()
    trainer = _make_trainer()
    assert 0.0 <= trainer.evaluate(x, y) <= 1.0


def test_fit_validation():
    x, y = _toy_problem()
    trainer = _make_trainer()
    with pytest.raises(ValueError):
        trainer.fit(x, y, epochs=0)
    with pytest.raises(ValueError):
        trainer.fit(x, y[:10], epochs=1)


def test_history_dataclass():
    history = TrainingHistory(val_accuracy=[0.5, 0.8, 0.7])
    assert history.best_val_accuracy() == 0.8


#: A 2-epoch QAT run of the 2-bit LeNet, pinned bit for bit.  Its backward
#: passes read the conv columns, pool inputs and STE inputs that the forward
#: kernels cache, so a kernel rewrite that changes any bit shows here.  The
#: values were taken with the argmax pool and the eager STE mask.
QAT_LOSSES = "[5.884061013123748, 2.4818383289730153]"
QAT_STATE_SHA256 = "375ff10d272ec41031c3bd0340c14e1d554908324febdc829becb9d447cb847d"


def test_qat_lenet_training_is_bit_stable():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(96, 1, 28, 28))
    y = rng.integers(0, 10, size=96)
    model = build_lenet(first_layer=FirstLayerConfig(weight_bits=2), seed=0)
    optimizer = SGD(model.parameters(), momentum=0.9)
    history = Trainer(model, optimizer, ConstantLR(0.05), seed=0).fit(
        x, y, epochs=2, batch_size=16
    )
    digest = hashlib.sha256()
    for parameter in model.parameters():
        digest.update(parameter.data.tobytes())
    for layer in model:
        if isinstance(layer, BatchNorm2D):
            digest.update(layer.running_mean.tobytes())
            digest.update(layer.running_var.tobytes())
    assert repr(history.train_loss) == QAT_LOSSES
    assert digest.hexdigest() == QAT_STATE_SHA256
