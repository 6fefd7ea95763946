"""Parser for the textual IR format: the printer's round-trip reference.

``parse_module(print_module(m))`` reconstructs an equivalent module;
``test_parser_roundtrip.py`` checks that the printed text is a fixed
point of print → parse → print over the whole benchmark corpus.
Forward references (PHI incomings and any use textually preceding its
definition) are handled with placeholder values patched after the
function body is read.
"""

from __future__ import annotations

import re

from repro.ir.block import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    FCMP_PREDICATES,
    FLOAT_BINARY_OPCODES,
    GEPInst,
    ICmpInst,
    ICMP_PREDICATES,
    INT_BINARY_OPCODES,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    CAST_OPCODES,
)
from repro.ir.module import Module
from repro.ir.types import DOUBLE, FLOAT, VOID, FunctionType, IntType, PointerType, Type
from repro.ir.values import ConstantFloat, ConstantInt, UndefValue, Value


class IRParseError(Exception):
    """Raised on malformed textual IR."""


_GLOBAL_RE = re.compile(
    r"^@(?P<name>[\w.\-]+) = global \[(?P<size>\d+) x (?P<type>[\w*]+)\]"
    r"(?: init \[(?P<init>.*)\])?$"
)
_DECLARE_RE = re.compile(
    r"^declare(?P<pure> pure)? (?P<ret>[\w*]+) @(?P<name>[\w.\-]+)"
    r"\((?P<params>.*)\)$"
)
_DEFINE_RE = re.compile(
    r"^define (?P<ret>[\w*]+) @(?P<name>[\w.\-]+)\((?P<params>.*)\) \{$"
)
_LABEL_RE = re.compile(r"^(?P<name>[\w.\-]+):$")


def parse_type(text: str) -> Type:
    """Parse a type spelling such as ``i64`` or ``double*``."""
    pointer_depth = 0
    while text.endswith("*"):
        pointer_depth += 1
        text = text[:-1]
    if text == "void":
        base: Type = VOID
    elif text == "double":
        base = DOUBLE
    elif text == "float":
        base = FLOAT
    elif text.startswith("i") and text[1:].isdigit():
        base = IntType(int(text[1:]))
    else:
        raise IRParseError(f"unknown type {text!r}")
    for _ in range(pointer_depth):
        base = PointerType(base)
    return base


class _Placeholder(Value):
    """Stand-in for a forward-referenced local value."""


class _FunctionBodyParser:
    """Parses one function body with forward-reference patching."""

    def __init__(self, module: Module, function: Function):
        self.module = module
        self.function = function
        self.blocks: dict[str, BasicBlock] = {}
        self.values: dict[str, Value] = {
            arg.name: arg for arg in function.args
        }
        self.placeholders: dict[str, _Placeholder] = {}

    # -- operand handling ---------------------------------------------------

    def block(self, name: str) -> BasicBlock:
        if name not in self.blocks:
            raise IRParseError(f"unknown block %{name}")
        return self.blocks[name]

    def local(self, name: str, type: Type) -> Value:
        if name in self.values:
            return self.values[name]
        placeholder = self.placeholders.get(name)
        if placeholder is None:
            placeholder = _Placeholder(type, name)
            self.placeholders[name] = placeholder
        return placeholder

    def define(self, name: str, value: Value) -> None:
        self.values[name] = value
        value.name = name
        placeholder = self.placeholders.pop(name, None)
        if placeholder is not None:
            placeholder.replace_all_uses_with(value)

    def operand(self, type: Type, token: str) -> Value:
        token = token.strip()
        if token.startswith("%"):
            return self.local(token[1:], type)
        if token.startswith("@"):
            name = token[1:]
            if name in self.module.globals:
                return self.module.globals[name]
            if name in self.module.functions:
                return self.module.functions[name]
            raise IRParseError(f"unknown global {token}")
        if token == "undef":
            return UndefValue(type)
        if type.is_float():
            return ConstantFloat(type, float(token))
        if type.is_integer():
            return ConstantInt(type, int(token))
        raise IRParseError(f"cannot parse operand {token!r} of type {type}")

    def typed_operand(self, text: str) -> tuple[Type, Value]:
        text = text.strip()
        type_text, _, value_text = text.partition(" ")
        type = parse_type(type_text)
        return type, self.operand(type, value_text)

    def finish(self) -> None:
        if self.placeholders:
            missing = ", ".join(sorted(self.placeholders))
            raise IRParseError(
                f"{self.function.name}: unresolved values: {missing}"
            )


def _split_top_level(text: str) -> list[str]:
    """Split on commas that are not inside brackets/parentheses."""
    parts = []
    depth = 0
    current = []
    for char in text:
        if char in "([":
            depth += 1
        elif char in ")]":
            depth -= 1
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def parse_module(text: str, name: str = "parsed") -> Module:
    """Parse a whole textual module."""
    module = Module(name)
    lines = [line.rstrip() for line in text.splitlines()]

    # Pass 1: globals, declarations and function signatures.
    bodies: list[tuple[Function, list[str]]] = []
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        index += 1
        if not line:
            continue
        match = _GLOBAL_RE.match(line)
        if match:
            element_type = parse_type(match.group("type"))
            initializer = None
            if match.group("init") is not None:
                tokens = _split_top_level(match.group("init"))
                if element_type.is_float():
                    initializer = [float(t) for t in tokens]
                else:
                    initializer = [int(t) for t in tokens]
            module.add_global(
                match.group("name"), element_type,
                int(match.group("size")), initializer,
            )
            continue
        match = _DECLARE_RE.match(line)
        if match:
            params = tuple(
                parse_type(p) for p in _split_top_level(match.group("params"))
            )
            module.add_function(
                match.group("name"),
                FunctionType(parse_type(match.group("ret")), params),
                pure=bool(match.group("pure")),
            )
            continue
        match = _DEFINE_RE.match(line)
        if match:
            param_types = []
            param_names = []
            for param in _split_top_level(match.group("params")):
                type_text, _, value_text = param.partition(" ")
                param_types.append(parse_type(type_text))
                if not value_text.startswith("%"):
                    raise IRParseError(f"bad parameter {param!r}")
                param_names.append(value_text[1:])
            function = module.add_function(
                match.group("name"),
                FunctionType(parse_type(match.group("ret")),
                             tuple(param_types)),
                param_names,
            )
            body: list[str] = []
            while index < len(lines):
                body_line = lines[index]
                index += 1
                if body_line.strip() == "}":
                    break
                body.append(body_line)
            else:
                raise IRParseError(f"unterminated function {function.name}")
            bodies.append((function, body))
            continue
        raise IRParseError(f"cannot parse line: {line!r}")

    # Pass 2: function bodies.
    for function, body in bodies:
        _parse_body(module, function, body)
    return module


def _parse_body(module: Module, function: Function,
                lines: list[str]) -> None:
    parser = _FunctionBodyParser(module, function)
    # Create all blocks first so branch targets resolve.
    for line in lines:
        match = _LABEL_RE.match(line.strip())
        if match and not line.startswith(" "):
            block = BasicBlock(match.group("name"))
            function.append_block(block)
            parser.blocks[block.name] = block

    current: BasicBlock | None = None
    for line in lines:
        stripped = line.strip()
        if not stripped:
            continue
        match = _LABEL_RE.match(stripped)
        if match and not line.startswith(" "):
            current = parser.blocks[match.group("name")]
            continue
        if current is None:
            raise IRParseError(f"instruction outside block: {stripped}")
        _parse_instruction(parser, current, stripped)
    parser.finish()


def _parse_instruction(parser: _FunctionBodyParser, block: BasicBlock,
                       text: str) -> None:
    name = None
    body = text
    if body.startswith("%"):
        name, _, body = body.partition(" = ")
        name = name[1:]
    opcode, _, rest = body.partition(" ")
    instruction = _build(parser, opcode, rest.strip())
    block.append(instruction)
    if name is not None:
        parser.define(name, instruction)


def _build(parser: _FunctionBodyParser, opcode: str, rest: str):
    if opcode in INT_BINARY_OPCODES or opcode in FLOAT_BINARY_OPCODES:
        lhs_text, rhs_text = _split_top_level(rest)
        type, lhs = parser.typed_operand(lhs_text)
        rhs = parser.operand(type, rhs_text)
        return BinaryInst(opcode, lhs, rhs)
    if opcode in ("icmp", "fcmp"):
        predicate, _, operands = rest.partition(" ")
        lhs_text, rhs_text = _split_top_level(operands)
        type, lhs = parser.typed_operand(lhs_text)
        rhs = parser.operand(type, rhs_text)
        if opcode == "icmp":
            if predicate not in ICMP_PREDICATES:
                raise IRParseError(f"bad icmp predicate {predicate}")
            return ICmpInst(predicate, lhs, rhs)
        if predicate not in FCMP_PREDICATES:
            raise IRParseError(f"bad fcmp predicate {predicate}")
        return FCmpInst(predicate, lhs, rhs)
    if opcode == "load":
        _, pointer = parser.typed_operand(rest)
        return LoadInst(pointer)
    if opcode == "store":
        value_text, pointer_text = _split_top_level(rest)
        _, value = parser.typed_operand(value_text)
        _, pointer = parser.typed_operand(pointer_text)
        return StoreInst(value, pointer)
    if opcode == "gep":
        base_text, index_text = _split_top_level(rest)
        _, base = parser.typed_operand(base_text)
        _, index = parser.typed_operand(index_text)
        return GEPInst(base, index)
    if opcode == "alloca":
        type_text, count_text = _split_top_level(rest)
        return AllocaInst(parse_type(type_text), int(count_text))
    if opcode == "phi":
        type_text, _, incomings = rest.partition(" ")
        type = parse_type(type_text)
        phi = PhiInst(type)
        for pair in re.findall(r"\[\s*(.*?)\s*,\s*%([\w.\-]+)\s*\]",
                               incomings):
            value_text, block_name = pair
            value = parser.operand(type, value_text)
            phi.add_incoming(value, parser.block(block_name))
        return phi
    if opcode == "br":
        parts = _split_top_level(rest)
        if len(parts) == 1:
            target = parts[0].removeprefix("label %")
            return BranchInst(parser.block(target))
        condition_text, then_text, else_text = parts
        _, condition = parser.typed_operand(condition_text)
        then_block = parser.block(then_text.removeprefix("label %"))
        else_block = parser.block(else_text.removeprefix("label %"))
        return BranchInst(condition, then_block, else_block)
    if opcode == "ret":
        if rest == "void":
            return ReturnInst()
        _, value = parser.typed_operand(rest)
        return ReturnInst(value)
    if opcode == "call":
        match = re.match(
            r"^(?P<ret>[\w*]+) @(?P<name>[\w.\-]+)\((?P<args>.*)\)$", rest
        )
        if match is None:
            raise IRParseError(f"bad call: {rest}")
        callee = parser.module.get_function(match.group("name"))
        args = [
            parser.typed_operand(arg)[1]
            for arg in _split_top_level(match.group("args"))
        ]
        return CallInst(callee, args)
    if opcode == "select":
        condition_text, then_text, else_text = _split_top_level(rest)
        _, condition = parser.typed_operand(condition_text)
        _, if_true = parser.typed_operand(then_text)
        _, if_false = parser.typed_operand(else_text)
        return SelectInst(condition, if_true, if_false)
    if opcode in CAST_OPCODES:
        operand_text, _, type_text = rest.rpartition(" to ")
        _, value = parser.typed_operand(operand_text)
        return CastInst(opcode, value, parse_type(type_text))
    raise IRParseError(f"unknown opcode {opcode!r}")
