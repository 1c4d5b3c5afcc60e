import os
import re

import pytest

from drsynth.errors import IoError
from drsynth.fileio import atomic_write


def test_a_failed_write_removes_its_temporary_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # the temporary file is written, then cannot be renamed over a directory
    with pytest.raises(IoError, match=f"^cannot write {re.escape(str(target))}: "):
        atomic_write(target, b"data")
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []
