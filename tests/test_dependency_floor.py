"""The numpy floor that pyproject.toml declares admits the numpy functions
the package calls. The requirement is read by a regular expression, since
tomllib is not in Python 3.10, the oldest Python the package supports."""
import re

from conftest import REPO


def _numpy_floor() -> tuple[int, int]:
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    found = re.findall(r'"numpy\s*>=\s*(\d+)\.(\d+)', text)
    assert len(found) == 1, "pyproject.toml declares no single numpy floor"
    return int(found[0][0]), int(found[0][1])


def test_numpy_floor_admits_vecdot():
    """np.vecdot came with numpy 2.0: on 1.x every call to it raises an
    AttributeError."""
    users = [path.name for path in sorted((REPO / "src" / "ekfservo").glob(
        "*.py")) if "np.vecdot" in path.read_text(encoding="utf-8")]
    if users:
        assert _numpy_floor() >= (2, 0), users
