"""The contract of the ten result records, which are `typing.NamedTuple` classes.

Each record is immutable, compares and hashes by value, keeps its keyword
defaults and its repr, and supports unpacking, ``_replace`` and
``_asdict``.  The two records that validate, `ModelParams` and `LogScalar`,
validate on ``_replace`` as well.  `LogScalar` has no ordering.
"""

import math
import operator
from fractions import Fraction

import pytest

import capmodel as cm
from capmodel import LOGFLOAT, DomainError, LogScalar, ModelParams
from capmodel.cli import RunConfig, parse_config

HALF = Fraction(1, 2)

#: name -> a call that builds the record from fixed values, and whether its
#: fields are hashable (a figure's markers are a mapping)
BUILDERS = {
    "TrajectoryPoint": (lambda: cm.evaluate_point(ModelParams(HALF, 3), 5), True),
    "Trajectory": (lambda: cm.run_trajectory(ModelParams(HALF, 3, LOGFLOAT), 12), True),
    "FigureSeries": (lambda: cm.figure_dataset(1, 8).series[1], True),
    "FigureData": (lambda: cm.figure_dataset(1, 8), False),
    "RecipeBookSample": (lambda: cm.sample_recipe_book(6, HALF, 3, cm.PER_SUBSET, True), True),
    "OracleReport": (lambda: cm.validate_expectations(4, HALF, 2, trials=30), True),
    "CrossCheck": (lambda: cm.cross_validate(12, HALF, 3), True),
    "ModelParams": (lambda: ModelParams("0.5", 3), True),
    "LogScalar": (lambda: LogScalar.from_float(-2.5), True),
    "RunConfig": (lambda: parse_config(["eval", "--rho", "1/2", "--n", "4"]), True),
}


@pytest.fixture(params=sorted(BUILDERS), ids=str)
def built(request):
    build, hashable = BUILDERS[request.param]
    record = build()
    assert type(record).__name__ == request.param
    return record, build, hashable


def test_fields_cannot_be_set(built):
    record, _, _ = built
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_equal_values_make_equal_records(built):
    record, build, hashable = built
    again = build()
    assert again == record and again is not record
    if hashable:
        assert hash(again) == hash(record)
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_unpacking_replace_and_asdict(built):
    record, _, _ = built
    assert tuple(record) == tuple(getattr(record, name) for name in record._fields)
    assert record._replace() == record
    assert type(record)(**record._asdict()) == record


def test_keyword_construction_keeps_the_defaults():
    config = RunConfig(command="eval")
    assert config.format is None and config.rho is None and config.id is None
    figure = cm.FigureData(1, HALF, ())
    assert figure.markers == {}
    with pytest.raises(TypeError):
        figure.markers["hump_onset"] = 3  # the default is a read-only, unshared mapping
    params = ModelParams(rho="1/2")
    assert params.r is cm.UNBOUNDED and params.backend == cm.EXACT
    sample = cm.RecipeBookSample(1, HALF, 0, cm.PER_SUBSET, counts_by_length=(1, 0))
    assert sample.viable_masks is None and sample.total() == 1


def test_reprs_name_every_field():
    assert repr(ModelParams(HALF, 3, LOGFLOAT)) == (
        "ModelParams(rho=Fraction(1, 2), r=3, backend='logfloat')"
    )
    assert repr(LogScalar(0, 7.0)) == "LogScalar(sign=0, log_abs=-inf)"
    assert repr(cm.evaluate_point(ModelParams(1), 1)) == (
        "TrajectoryPoint(n=1, variety=Fraction(2, 1), avg_length=Fraction(1, 2),"
        " delta_variety=Fraction(2, 1), stage=<Stage.DEVELOPING: 'developing'>,"
        " constrained=False)"
    )


def test_replace_validates_like_construction():
    params = ModelParams(HALF, 3)
    assert params._replace(rho="3/4").rho == Fraction(3, 4)
    with pytest.raises(DomainError):
        params._replace(rho=2)
    with pytest.raises(DomainError):
        params._replace(backend="fast")
    assert LogScalar(1, 2.0)._replace(sign=0) == LogScalar.zero()
    with pytest.raises(DomainError):
        LogScalar(1, 2.0)._replace(sign=2)


@pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
def test_log_scalars_have_no_order(compare):
    # as tuples, (-1, 5.0) < (-1, 1.0) would be False, though -e**5 < -e**1
    with pytest.raises(TypeError):
        compare(LogScalar(-1, 5.0), LogScalar(-1, 1.0))
    assert LogScalar(-1, 5.0) != LogScalar(-1, 1.0)
    assert LogScalar(0, 1.0) == LogScalar(0, -math.inf)
