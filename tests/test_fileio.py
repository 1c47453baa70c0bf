import os
import stat

import pytest

from latenthypernet import fileio


@pytest.fixture(params=[0o022, 0o077], ids=["umask-022", "umask-077"])
def umask(request):
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


@pytest.mark.parametrize(
    "write",
    [
        lambda path: fileio.write_csv(path, [["a", "b"], ["1", "2"]]),
        lambda path: fileio.write_model(path, "test-format", 1, value=[1.0]),
    ],
    ids=["write_csv", "write_model"],
)
def test_written_file_has_the_mode_a_plain_write_gives(umask, write, tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8") as fh:
        fh.write("x")
    written = tmp_path / "written.txt"
    write(written)
    mode = stat.S_IMODE(written.stat().st_mode)
    assert mode == 0o666 & ~umask == stat.S_IMODE(plain.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.txt", "written.txt"]
