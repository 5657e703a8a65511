import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "unreferenced", os.path.join(ROOT, "tools", "unreferenced.py"))
unreferenced = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreferenced)


def found(root):
    return [(os.path.relpath(path, root), line, name)
            for path, line, name in unreferenced.unreferenced(root)]


def test_every_library_definition_is_referenced():
    assert found(ROOT) == []


def test_unreferenced_definitions_are_flagged(tmp_path):
    lib = tmp_path / "src" / "trivec"
    lib.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (lib / "mod.py").write_text(
        "def used():\n    pass\n\n\n"
        "def unused():\n    pass\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n        pass\n\n"
        "    def read(self):\n        pass\n\n"
        "    def unread(self):\n        pass\n\n\n"
        "TABLE = ('by_string',)\n\n\n"
        "def by_string():\n    pass\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from trivec.mod import Box, used\n\n"
        "used()\nBox().read()\n")
    assert found(tmp_path) == [
        (os.path.join("src", "trivec", "mod.py"), 5, "unused"),
        (os.path.join("src", "trivec", "mod.py"), 16, "Box.unread"),
    ]
