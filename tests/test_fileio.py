import os
import re

import pytest

from drsynth.errors import IoError
from drsynth.fileio import atomic_write, check_writable, make_dirs


def test_a_failed_write_removes_its_temporary_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # the temporary file is written, then cannot be renamed over a directory
    with pytest.raises(IoError, match=f"^cannot write {re.escape(str(target))}: Is a directory$"):
        atomic_write(target, b"data")
    assert os.listdir(tmp_path) == ["taken"]
    assert os.listdir(target) == []


def test_a_write_into_a_missing_directory_names_the_path_not_its_temporary_file(tmp_path):
    target = tmp_path / "nodir" / "x.nii.gz"
    with pytest.raises(IoError) as info:
        atomic_write(target, b"data")
    assert str(info.value) == f"cannot write {target}: No such file or directory"
    assert os.listdir(tmp_path) == []


def test_check_writable_raises_what_the_write_would_and_leaves_nothing(tmp_path):
    afile = tmp_path / "afile"
    afile.write_bytes(b"")
    for target in (tmp_path / "nodir" / "x.nii.gz", afile / "x.json"):
        with pytest.raises(IoError) as checked:
            check_writable(target)
        with pytest.raises(IoError) as written:
            atomic_write(target, b"data")
        assert str(checked.value) == str(written.value)
    check_writable(tmp_path / "x.json")
    check_writable(afile)  # an existing output is left as it was
    assert os.listdir(tmp_path) == ["afile"] and afile.read_bytes() == b""


def test_make_dirs_makes_parents_and_keeps_an_existing_directory(tmp_path):
    target = tmp_path / "a" / "b"
    make_dirs(target)
    make_dirs(target)
    assert target.is_dir() and os.listdir(target) == []


@pytest.mark.parametrize("sub, reason", [("", "File exists"), ("sub", "Not a directory")])
def test_make_dirs_over_a_file_names_the_path_and_the_reason(tmp_path, sub, reason):
    afile = tmp_path / "afile"
    afile.write_text("data")
    target = os.path.join(afile, sub) if sub else str(afile)
    with pytest.raises(IoError) as info:
        make_dirs(target)
    assert str(info.value) == f"cannot create {target}: {reason}"
