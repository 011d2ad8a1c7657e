"""The warning filters the suite runs under (``pyproject.toml``): a
deprecation raised from ``clik`` code fails its test, one raised from a
third-party module stays a warning."""

import warnings

import pytest


def warn_from(module, category):
    """Raise ``category`` from code whose module is ``module``."""
    code = compile("import warnings\nwarnings.warn('old', category)",
                   module.replace(".", "/") + ".py", "exec")
    exec(code, {"__name__": module, "category": category})


@pytest.mark.parametrize("module", ["clik", "clik.models", "clik.a.b"])
@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
def test_deprecations_from_clik_code_are_errors(module, category):
    with pytest.raises(category, match="old"):
        warn_from(module, category)


@pytest.mark.parametrize("module", ["libcst.metadata", "clikx", "not_clik"])
def test_deprecations_from_other_modules_are_warnings(module):
    with warnings.catch_warnings(record=True) as seen:
        warn_from(module, DeprecationWarning)
    assert all(w.category is DeprecationWarning for w in seen)
