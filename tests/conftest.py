"""Test-session settings shared by every test module."""

import contextlib
import warnings

# Hypothesis imports this module, and with it libcst, only while it reports a failing
# property.  libcst's import warns that mypy_extensions.TypedDict is deprecated, and
# under -W error::DeprecationWarning that warning ends the run in a pytest INTERNALERROR
# before the falsifying example is printed.  Imported once here with that one warning
# ignored, the later import is a cached no-op.  Without libcst, Hypothesis skips it too.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
