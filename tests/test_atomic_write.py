"""Artifacts are written whole or not at all, and only through data.atomic_write."""

import ast
from pathlib import Path

import pytest

from adaptlm import checkpoint
from adaptlm.checkpoint import load_checkpoint_file, roundtrip_bytes, save_checkpoint_file
from adaptlm.data import LabeledSentence, parse_conll, write_conll

SRC = Path(__file__).resolve().parents[1] / "src" / "adaptlm"


def test_failed_checkpoint_save_keeps_the_old_file(tmp_path, tiny_weights, monkeypatch):
    path = tmp_path / "step_000002.ckpt"
    save_checkpoint_file(tiny_weights, path)
    before = path.read_bytes()
    first, second = (name.encode("utf-8") for name in sorted(tiny_weights.tensors)[:2])
    written = []

    class DiskFull:
        """Passes writes through until the second tensor's name."""

        def __init__(self, f):
            self.f = f

        def write(self, data):
            if data == second:
                raise OSError("no space left on device")
            written.append(data)
            return self.f.write(data)

    save = checkpoint.save_checkpoint
    monkeypatch.setattr(checkpoint, "save_checkpoint",
                        lambda store, sink: save(store, DiskFull(sink)))
    changed = tiny_weights.clone()
    changed.tensors["mlm.bias"] += 1.0
    with pytest.raises(OSError, match="no space"):
        save_checkpoint_file(changed, path)
    monkeypatch.undo()
    assert first in written  # the first tensor went out before the failure
    assert path.read_bytes() == before
    assert roundtrip_bytes(load_checkpoint_file(path)) == before
    assert list(tmp_path.iterdir()) == [path]


def test_failed_text_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "ner.conll"
    old = [LabeledSentence(("a",), ("O",))]
    write_conll(old, path)
    before = path.read_bytes()

    def sentences():
        yield LabeledSentence(("b", "c"), ("S-D", "O"))
        raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space"):
        write_conll(sentences(), path)
    assert path.read_bytes() == before
    assert parse_conll(path) == old
    assert list(tmp_path.iterdir()) == [path]


def _write_mode(call: ast.Call) -> bool:
    """Whether an open() call may write: its mode is not a constant, or it
    holds w, a, x or +. The mode is the second argument of open, io.open and
    os.open, the first of a method such as Path.open."""
    func = call.func
    bare = isinstance(func, ast.Name) or getattr(func.value, "id", None) in ("io", "os")
    modes = [k.value for k in call.keywords if k.arg == "mode"] + (
        call.args[1:2] if bare else call.args[:1])
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


class _WriteSites(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module, self.scope, self.sites = module, ["<module>"], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("write_text", "write_bytes") or (name == "open" and _write_mode(node)):
            self.sites.add(f"{self.module}:{self.scope[-1]}")
        self.generic_visit(node)


def test_every_file_write_goes_through_atomic_write():
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        finder = _WriteSites(path.name)
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites |= finder.sites
    # the pretrain step log streams a line per step, so a killed run leaves
    # a readable log; it is the one file not written atomically
    assert sites == {"data.py:atomic_write", "cli.py:cmd_pretrain"}
