import pytest

from weincalc.exactarith import ParameterError


@pytest.fixture
def refuses():
    """refuses(call, message, **params): call() raises ParameterError with
    exactly this text and these parameters at fault, in this order."""

    def check(call, message, **params):
        with pytest.raises(ParameterError) as refused:
            call()
        assert str(refused.value) == message
        assert list(refused.value.params.items()) == list(params.items())

    return check
