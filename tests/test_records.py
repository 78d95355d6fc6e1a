"""The frozen-record contract that every value type of the package keeps.

``qeraser._record.Record`` stands in for frozen dataclasses: fields are
the annotated names, base classes first; the constructor binds them and
runs ``__post_init__``; instances refuse assignment; equality, hashing,
``repr``, ``pickle`` and ``copy`` read the field tuple.
"""

import copy
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qeraser import fock, protocols, qubits, sampler, verify
from qeraser._record import Record, astuple, replace
from qeraser.protocols import _ERASING_ANGLE, ChshSettings, MetrologySetup
from qeraser.sampler import EXPERIMENTS, MODES, ExperimentConfig, config_to_dict

SETTINGS = ChshSettings(0.0, math.pi / 2, math.pi / 4, 3.0 * math.pi / 4)
CONFIG = ExperimentConfig("chsh", 40, 5, phi=0.3, settings=SETTINGS)


def every_record():
    """One instance of each record class of the package, keyed by class name."""
    system, control = sampler.run_experiment(CONFIG)
    joined = sampler.delayed_join(system, control)
    return {
        "ProbabilityTable": protocols.hom_table(0.4, fock.Statistics.BOSON),
        "ChshSettings": SETTINGS,
        "MetrologySetup": MetrologySetup(3, 0.2, 0.1, math.pi / 2),
        "StateVector": qubits.ghz_state(2, 0.5),
        "_Stream": sampler._Stream(np.arange(2), np.array([1, -1])),
        "SystemStream": system,
        "ControlStream": control,
        "ExperimentConfig": CONFIG,
        "JoinedStreams": joined,
        "EmpiricalTable": sampler.empirical_table(
            system.labels, sampler.joint_counts(system, control.outcome).sum(axis=0)
        ),
        "CheckResult": verify.CheckResult("name", True, ""),
    }


RECORDS = every_record()


def test_every_record_class_is_covered():
    assert len(RECORDS) == 11
    for name, record in RECORDS.items():
        assert type(record).__name__ == name
        assert isinstance(record, Record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_refuses_assignment_and_deletion(name):
    record = RECORDS[name]
    field = record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("record", [CONFIG, SETTINGS], ids=["config", "settings"])
def test_equality_hash_pickle_and_copy_survive_a_round_trip(record):
    for twin in (
        pickle.loads(pickle.dumps(record)),
        pickle.loads(pickle.dumps(record, protocol=0)),
        copy.copy(record),
        copy.deepcopy(record),
        replace(record),
    ):
        assert type(twin) is type(record)
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert astuple(twin) == astuple(record)
        assert repr(twin) == repr(record)


def test_records_of_other_classes_or_values_differ():
    assert CONFIG != replace(CONFIG, seed=6)
    assert SETTINGS != (SETTINGS.theta_a0, SETTINGS.theta_a1, SETTINGS.theta_b0, SETTINGS.theta_b1)
    assert len({CONFIG, replace(CONFIG), replace(CONFIG, seed=6)}) == 2


def test_repr_names_the_class_and_every_field():
    assert repr(ChshSettings(0.0, 1.0, 2.0, 3.0)) == (
        "ChshSettings(theta_a0=0.0, theta_a1=1.0, theta_b0=2.0, theta_b1=3.0)"
    )


def test_replace_runs_the_validation_again():
    with pytest.raises(ValueError, match="positive integer"):
        replace(CONFIG, shots=0)
    with pytest.raises(TypeError, match="no_such_field"):
        replace(CONFIG, no_such_field=1)


def test_replace_normalises_again():
    moved = replace(SETTINGS, theta_a0=7.0)
    assert moved.theta_a0 == 7.0 % (2.0 * math.pi)
    assert 0.0 <= moved.theta_a0 < 2.0 * math.pi
    assert astuple(moved)[1:] == astuple(SETTINGS)[1:]


@pytest.mark.parametrize("angle", [-5e-324, -1e-17, -4.4e-16])
def test_a_tiny_negative_angle_reduces_into_the_half_open_range(angle):
    # angle % 2pi rounds up to 2pi itself; reducing that again gives 0
    settings = ChshSettings(angle, 0.0, 0.0, 0.0)
    assert settings.theta_a0 == 0.0
    assert replace(settings) == settings


def test_system_stream_fields_come_base_first():
    assert sampler._Stream._fields == ("shot_index", "outcome")
    assert sampler.SystemStream._fields == (
        "shot_index",
        "outcome",
        "setting_row",
        "experiment",
        "labels",
        "settings",
    )
    assert sampler.ControlStream._fields == ("shot_index", "outcome", "basis_angle")
    # a class value without an annotation is no field
    assert sampler.SystemStream._COLUMNS == ("shot_index", "outcome", "setting_row")


def test_empirical_table_fields_extend_the_probability_table():
    table = RECORDS["EmpiricalTable"]
    assert type(table)._fields[:3] == protocols.ProbabilityTable._fields
    assert type(table)._fields[3:] == ("counts", "total", "standard_errors", "flagged")


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "missing required arguments: theta_a0, theta_a1, theta_b0, theta_b1"),
        ((0.0, 1.0, 2.0), {}, "missing required arguments: theta_b1"),
        ((0.0, 1.0, 2.0, 3.0, 4.0), {}, "takes 4 positional arguments but 5 were given"),
        ((0.0, 1.0, 2.0, 3.0), {"theta_a0": 0.5}, "multiple values for argument 'theta_a0'"),
        ((0.0, 1.0, 2.0, 3.0), {"theta_c": 0.5}, "unexpected keyword argument 'theta_c'"),
    ],
)
def test_binding_errors_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        ChshSettings(*args, **kwargs)


def test_keywords_bind_in_any_order_and_defaults_fill_the_rest():
    config = ExperimentConfig(seed=5, experiment="chsh", settings=SETTINGS, shots=40, phi=0.3)
    assert config == CONFIG
    assert config.mode == "quantum" and config.n == 1 and config.theta == 0.0


class _Point(Record):
    # real annotation objects: this module does not postpone annotations
    x: int
    y: int = 2


class _Labeled(_Point):
    label: str = "p"


class _Single(Record):
    value: float


def test_a_record_in_a_module_without_postponed_annotations():
    assert _Point._fields == ("x", "y")
    assert _Labeled._fields == ("x", "y", "label")
    point = _Labeled(1, label="q")
    assert astuple(point) == (1, 2, "q")
    assert point == _Labeled(1, 2, "q")
    # equal field tuples of different classes are different values
    assert _Point(1, 2) != point and point != _Point(1, 2)
    assert repr(point) == "_Labeled(x=1, y=2, label='q')"


def test_a_field_without_a_default_after_one_with_a_default_is_refused():
    with pytest.raises(TypeError, match="without a default follows a default"):

        class _Late(_Point):
            z: int


def test_a_one_field_record_still_compares_a_tuple():
    assert astuple(_Single(0.5)) == (0.5,)
    assert _Single(0.5) == _Single(0.5) and hash(_Single(0.5)) == hash((0.5,))
    assert repr(_Single(0.5)) == "_Single(value=0.5)"


def test_a_stream_is_unhashable_and_compares_its_columns():
    system = RECORDS["SystemStream"]
    assert system == replace(system)
    assert system != replace(system, outcome=np.zeros(len(system), dtype=int))
    with pytest.raises(TypeError):
        hash(system)


angles = st.floats(-50.0, 50.0, allow_nan=False)


@st.composite
def configs(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    mode = draw(st.sampled_from(MODES))
    angle = (
        _ERASING_ANGLE[experiment] if mode == "classical_mixture" else draw(angles)
    )
    return ExperimentConfig(
        experiment=experiment,
        shots=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**64 - 1)),
        phi=draw(angles),
        statistics=draw(st.sampled_from([s.value for s in fock.Statistics])),
        n=draw(st.integers(1, 20)),
        theta=draw(angles),
        settings=ChshSettings(*draw(st.tuples(angles, angles, angles, angles)))
        if experiment == "chsh"
        else None,
        control_basis_angle=angle,
        mode=mode,
    )


@settings(max_examples=200, deadline=None)
@given(configs())
def test_config_to_dict_rebuilds_an_equal_config(config):
    view = json.loads(json.dumps(config_to_dict(config)))
    if view["settings"] is not None:
        view["settings"] = ChshSettings(*view["settings"])
    rebuilt = ExperimentConfig(**view)
    assert rebuilt == config
    assert hash(rebuilt) == hash(config)
    assert config_to_dict(rebuilt) == config_to_dict(config)
