"""Guard: no enum class attribute reads on the per-instruction path.

The enum metaclass defines ``__getattr__`` (CPython 3.11), so a read
such as ``OpClass.LOAD`` inside a function takes a slow attribute path
that the specializing interpreter never specializes: roughly 0.1 µs per
read against ~0.01 µs for a module global.  The simulator's hot
functions therefore read enum members through module-level constants
bound once (``_LOAD = OpClass.LOAD``).  This test walks the AST of each
hot function and fails on any ``Name.ATTR`` whose ``Name`` is an enum
class in that function's module globals.  Working from the source, not
the bytecode, keeps the check independent of the Python version.
"""

from __future__ import annotations

import ast
import enum
import importlib
import inspect
import textwrap

import pytest

from repro.isa.opcodes import OpClass
from repro.regfile.base import RegisterFileModel

#: ``(module, qualified name)`` of every function an instruction or a
#: select attempt passes through.
HOT_FUNCTIONS = [
    ("repro.pipeline.processor", "Processor.run"),
    ("repro.pipeline.processor", "Processor._commit_stage"),
    ("repro.pipeline.processor", "Processor._writeback_stage"),
    ("repro.pipeline.processor", "Processor._issue_stage"),
    ("repro.pipeline.processor", "Processor._handle_upper_level_misses"),
    ("repro.pipeline.processor", "Processor._dispatch_stage"),
    ("repro.pipeline.processor", "Processor.forwarding_store"),
    ("repro.pipeline.processor", "Processor.functional_warmup"),
    ("repro.regfile.base", "OperandAccess.__init__"),
    ("repro.rename.renamer", "Renamer.rename"),
    ("repro.isa.instruction", "DynamicInstruction.__post_init__"),
    ("repro.frontend.fetch", "FetchUnit._predict_branch"),
    ("repro.frontend.fetch", "FetchUnit.fetch_into"),
    ("repro.trace.replayer", "TraceReplayer.fetch_into"),
    ("repro.trace.schema", "DecodedTrace.to_bytes"),
    ("repro.trace.schema", "DecodedTrace.from_bytes"),
    ("repro.trace.schema", "DecodedTrace.replay_groups"),
]

#: Every register-file model the pipeline can be built with.
REGISTER_FILE_MODELS = [
    ("repro.regfile.monolithic", "SingleBankedRegisterFile"),
    ("repro.regfile.banked", "OneLevelBankedRegisterFile"),
    ("repro.regfile.cache", "RegisterFileCache"),
]

#: The model methods the pipeline calls per cycle, attempt or operand.
REGISTER_FILE_METHODS = [
    "plan_operand_read", "can_claim_reads", "claim_reads", "writeback",
    "begin_cycle", "request_fill", "pin_operand", "on_issue", "release",
]


def _resolve(module_name: str, qualname: str):
    target = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    return target


def _hot_functions():
    functions = {}
    for module_name, qualname in HOT_FUNCTIONS:
        functions[f"{module_name}.{qualname}"] = _resolve(module_name, qualname)
    for module_name, class_name in REGISTER_FILE_MODELS:
        model = _resolve(module_name, class_name)
        for method in REGISTER_FILE_METHODS:
            function = getattr(model, method)
            # An inherited default is checked once, under its own name.
            functions[f"{function.__module__}.{function.__qualname__}"] = function
    return functions


_HOT = _hot_functions()


def enum_attribute_reads(function) -> list[str]:
    """``file:line: Name.ATTR`` for every enum class attribute read."""
    lines, first_line = inspect.getsourcelines(function)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    module_globals = function.__globals__
    path = inspect.getsourcefile(function)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
            continue
        owner = module_globals.get(node.value.id)
        if isinstance(owner, enum.EnumMeta):
            found.append(
                f"{path}:{first_line + node.lineno - 1}: {node.value.id}.{node.attr}"
            )
    return found


@pytest.mark.parametrize("name", sorted(_HOT))
def test_no_enum_attribute_reads(name):
    found = enum_attribute_reads(_HOT[name])
    assert not found, (
        f"{name} reads enum members through the class; bind them to "
        "module-level constants instead:\n" + "\n".join(found)
    )


def test_model_list_covers_every_register_file_model():
    listed = {_resolve(module, name) for module, name in REGISTER_FILE_MODELS}
    defined = {
        cls for cls in RegisterFileModel.__subclasses__()
        if cls.__module__.startswith("repro.")
    }
    assert defined <= listed


def _reads_class_attribute(op_class):
    return op_class is OpClass.LOAD


def test_detects_enum_attribute_reads():
    found = enum_attribute_reads(_reads_class_attribute)
    assert len(found) == 1
    assert found[0].endswith(": OpClass.LOAD")
    assert "test_hot_path_enum_reads.py:" in found[0]
