"""pstlab's value types against stdlib dataclasses.

Each `pstlab.schema.Record` type is declared as a frozen dataclass once
was, but from shared methods that generate no code.  The oracle here is
its twin: a frozen dataclass made with `dataclasses.make_dataclass` from
the record's own `fields`, with the same ``eq`` setting.  On sample
instances, record and twin must agree on equality, hash, repr,
``asdict``, the refused assignment and every error of a bad call.
"""

import copy
import dataclasses
import functools

import numpy as np
import pytest

from pstlab import experiments, liouville, magnus, numerics, pauli, pst_core, schema
from pstlab.schema import MISSING, Record, asdict, fields

MODULES = (schema, pauli, numerics, liouville, magnus, pst_core, experiments)

# The types declared with ``eq=False``: they hold arrays, so they compare
# and hash by identity.
IDENTITY = (pst_core.TwirledChannel, pst_core.EffectiveGenerator)


def _channel(tau):
    drive = magnus.DriveSpec.single("X", tau)
    return pst_core.twirled_channels(drive, [magnus.CoherentErrorSpec()])[0]


def _samples():
    """Two instances of each record type, with different field values."""
    row_a = experiments.MagnusCheckRow(0.5, (("XX", 0.2),), 1e-12, 3e-13, True)
    row_b = experiments.MagnusCheckRow(1.0, (), None, None, False, "no convergence")
    table1 = experiments.Table1Config(drive="X", errors=(("Z", 0.1),))
    magnus_check = experiments.MagnusCheckConfig(random_sets=1)
    pairs = [
        (schema.SignTableConfig(), schema.SignTableConfig(3)),
        (schema.OverRotationConfig(0.5, 0.24), schema.OverRotationConfig(tau=0.4, sum_h2=0.24)),
        (schema.CalibrateConfig(1.0, 0.24), schema.CalibrateConfig(1.0, 0.1)),
        (pauli.PauliString(2, 7), pauli.PauliString(2, 8)),
        (numerics.QuadratureResult(np.array([1.0, 2.0]), 0.0, 5),
         numerics.QuadratureResult(np.array(1.5), 1e-9, 9)),
        (liouville.NoiseSpec(), liouville.NoiseSpec("pauli_z", 1.0, (0,))),
        (magnus.DriveSpec.single("ZX", 0.5), magnus.DriveSpec.single("X", 0.5)),
        (magnus.CoherentErrorSpec(),
         magnus.CoherentErrorSpec.from_amplitudes({"XX": 0.2}, 0.5)),
        (_channel(0.5), _channel(0.7)),
        (pst_core.EffectiveGenerator(0.5, np.zeros((2, 2)), np.zeros((4, 4))),
         pst_core.EffectiveGenerator(0.7, np.eye(2), np.eye(4))),
        (experiments.Table1Config(), table1),
        # Equal but for ``twirled``, which comparisons leave out.
        (experiments.Table1Report(table1, {"Z": 0.1}, {"Z": 0.0}, 1.0, 99.9, _channel(0.5)),
         experiments.Table1Report(table1, {"Z": 0.1}, {"Z": 0.0}, 1.0, 99.9, _channel(0.7))),
        (experiments.ParitySweepConfig(),
         experiments.ParitySweepConfig(deltas=(-0.5, 0.0, 0.5))),
        (experiments.ParitySweepRow(0.1, 0.2, 0.3, "none"),
         experiments.ParitySweepRow(delta=-0.1, error=0.2, symmetrized=0.3,
                                    noise_kind="pauli_z")),
        (experiments.MagnusCheckConfig(), magnus_check),
        (row_a, row_b),
        (experiments.MagnusCheckReport(magnus_check, (row_a,)),
         experiments.MagnusCheckReport(magnus_check, (row_a, row_b))),
    ]
    return {type(a): (a, b) for a, b in pairs}


SAMPLES = _samples()


@functools.cache
def _twin(cls):
    """The frozen dataclass with ``cls``'s fields and ``eq`` setting."""
    specs = []
    for spec in fields(cls):
        options = {"compare": spec.compare, "repr": spec.repr,
                   "metadata": dict(spec.metadata)}
        if spec.default is not MISSING:
            options["default"] = spec.default
        specs.append((spec.name, object, dataclasses.field(**options)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True,
                                      eq=cls not in IDENTITY)


def _as_twin(value):
    """``value`` with every record in it, nested ones too, replaced by an
    instance of its twin holding the same field values."""
    if isinstance(value, Record):
        return _twin(type(value))(*[_as_twin(getattr(value, spec.name))
                                    for spec in fields(value)])
    if isinstance(value, tuple):
        return tuple(_as_twin(item) for item in value)
    return value


def _outcome(call):
    """What ``call()`` does: its result's repr, or the built-in type and
    message of what it raises (`dataclasses.FrozenInstanceError` counts as
    the AttributeError it derives from)."""
    try:
        return "returns", repr(call())
    except Exception as exc:  # the exception is the outcome compared
        builtin = next(kind for kind in type(exc).__mro__ if kind.__module__ == "builtins")
        return builtin.__name__, str(exc)


def _instances(cls):
    """Sample records a, b and a copy of a, and a twin of each."""
    a, b = SAMPLES[cls]
    records = [a, b, copy.copy(a)]
    return records, [_as_twin(record) for record in records]


def test_every_record_type_has_samples():
    declared = {
        value for module in MODULES for value in vars(module).values()
        if isinstance(value, type) and issubclass(value, Record)
        and value.__module__ == module.__name__ and fields(value)
    }
    assert declared == set(SAMPLES)
    assert len(SAMPLES) == 17


TYPES = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)


@TYPES
def test_equality_agrees(cls):
    records, twins = _instances(cls)
    for i, j in [(0, 0), (0, 2), (0, 1), (1, 0)]:
        assert _outcome(lambda: records[i] == records[j]) == (
            _outcome(lambda: twins[i] == twins[j])), (i, j)
        assert _outcome(lambda: records[i] != records[j]) == (
            _outcome(lambda: twins[i] != twins[j])), (i, j)
    assert records[0] != twins[0]


@TYPES
def test_hash_agrees(cls):
    records, twins = _instances(cls)
    for record, twin in zip(records, twins):
        if cls in IDENTITY:
            assert hash(record) == object.__hash__(record)
            assert hash(twin) == object.__hash__(twin)
        else:
            assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(twin))


@TYPES
def test_repr_and_asdict_agree(cls):
    records, twins = _instances(cls)
    for record, twin in zip(records, twins):
        assert repr(record) == repr(twin)
        # repr, as == on arrays is elementwise
        assert repr(asdict(record)) == repr(dataclasses.asdict(twin))


@TYPES
def test_assignment_is_refused_alike(cls):
    records, twins = _instances(cls)
    for name in [spec.name for spec in fields(cls)] + ["not_a_field"]:
        for act in (lambda obj: setattr(obj, name, 1), lambda obj: delattr(obj, name)):
            outcome = _outcome(lambda: act(records[0]))
            assert outcome[0] == "AttributeError"
            assert outcome == _outcome(lambda: act(twins[0]))
    assert repr(records[0]) == repr(twins[0])


@TYPES
def test_bad_calls_raise_alike(cls):
    twin = _twin(cls)
    record = SAMPLES[cls][0]
    names = [spec.name for spec in fields(cls)]
    values = [getattr(record, name) for name in names]
    required = sum(spec.default is MISSING for spec in fields(cls))
    calls = [((), {}), ((*values, 0), {}), ((*values, 0, 1), {}),
             (values, {"not_a_field": 1}), (values, {names[0]: values[0]}),
             ((), dict(reversed(list(zip(names, values)))))]
    calls += [(values[:k], {}) for k in range(required)]
    for args, kwargs in calls:
        outcome = _outcome(lambda: cls(*args, **kwargs))
        assert outcome == _outcome(lambda: twin(*args, **kwargs)), (args, kwargs)
    if required:
        assert _outcome(lambda: cls())[1].startswith(
            f"{cls.__name__}.__init__() missing {required} required positional argument")


@TYPES
def test_positional_keyword_and_copy_construction_agree(cls):
    record = SAMPLES[cls][0]
    values = {spec.name: getattr(record, spec.name) for spec in fields(cls)}
    for rebuilt in (cls(*values.values()), cls(**values), copy.copy(record)):
        assert type(rebuilt) is cls
        assert repr(rebuilt) == repr(record)
        assert (rebuilt == record) is (cls not in IDENTITY)


def test_post_init_runs_after_the_fields_are_set():
    with pytest.raises(ValueError, match="unknown noise kind"):
        liouville.NoiseSpec("bogus")
    assert liouville.NoiseSpec(targets=[1, 0]).targets == (1, 0)
    assert pauli.PauliString(1, np.int64(3)).index.__class__ is int
