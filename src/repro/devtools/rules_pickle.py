"""Pickle-safety rules: nothing unpicklable may reach the worker wire.

The worker pool (behind the distributed backend and the serve daemon)
and the serve protocol ship objects through ``pickle``: the worker task
whitelist (``execute_map_task``/``execute_reduce_task``) carries jobs, matchers,
blocking functions and record buckets; ``PipelineRequest``,
``PipelineResult`` and ``ExecutionEvent`` travel between client and
server.  An unpicklable object in that closure surfaces as a runtime
``PicklingError`` on the first distributed run — these rules surface it
at lint time instead.

How the reachable set is computed (pure ``ast`` + ``symtable``):

1. **Seeds** — the parameter annotations of the task-whitelist
   functions, plus the wire message classes, plus anything marked
   ``# repro-lint: wire-root``.
2. **Closure** — from every reachable class, follow dataclass field
   annotations, ``self.attr: T`` annotations, ``self.attr = Cls(...)``
   constructor calls, base classes, and *subclasses* (the wire carries
   the runtime type, not the declared one).
3. **Stop at custom serialization** — a class defining (or inheriting,
   within the project) ``__getstate__``/``__reduce__``/
   ``__reduce_ex__``/``__getnewargs__`` controls its own pickled form:
   it is neither scanned nor expanded.

Within the reachable set, two rules fire:

* ``unpicklable-attribute`` — an instance attribute holds a lock,
  queue, thread, socket, file, mmap or process handle;
* ``unpicklable-callable`` — an instance attribute holds a lambda or a
  locally defined function/class (pickle serializes functions by
  qualified name; ``<locals>`` names never resolve on the other side —
  and ``symtable`` tells us when the local function is also a closure).
"""

from __future__ import annotations

import ast
import symtable
from typing import Iterator

from .context import ModuleContext, ProjectContext
from .findings import Finding
from .registry import PROJECT, register_rule

#: Built-in seed symbols: (module dotted name, symbol).  Fixture files
#: outside the package seed by bare symbol name instead.
SEED_SYMBOLS = {
    ("repro.mapreduce.runtime", "execute_map_task"),
    ("repro.mapreduce.runtime", "execute_reduce_task"),
    ("repro.engine.backend", "PipelineRequest"),
    ("repro.engine.backend", "DeltaSpec"),
    ("repro.engine.result", "PipelineResult"),
    ("repro.mapreduce.events", "ExecutionEvent"),
}
SEED_NAMES = {name for _, name in SEED_SYMBOLS}

#: Constructors whose instances do not survive pickling.
UNSAFE_CTORS = {
    "threading.Lock": "a lock",
    "threading.RLock": "a lock",
    "threading.Condition": "a condition variable",
    "threading.Event": "an event",
    "threading.Semaphore": "a semaphore",
    "threading.BoundedSemaphore": "a semaphore",
    "threading.Barrier": "a barrier",
    "threading.Thread": "a thread",
    "threading.local": "thread-local storage",
    "queue.Queue": "a queue",
    "queue.LifoQueue": "a queue",
    "queue.PriorityQueue": "a queue",
    "queue.SimpleQueue": "a queue",
    "socket.socket": "a socket",
    "socket.create_connection": "a socket",
    "mmap.mmap": "a memory map",
    "subprocess.Popen": "a process handle",
    "open": "an open file",
    "io.open": "an open file",
    "gzip.open": "an open file",
    "bz2.open": "an open file",
    "lzma.open": "an open file",
}

#: Methods whose presence means a class controls its own pickled form.
SERIALIZATION_HOOKS = {
    "__getstate__", "__reduce__", "__reduce_ex__", "__getnewargs__",
    "__getnewargs_ex__",
}


class _ClassInfo:
    """Everything the reachability walk needs about one class."""

    __slots__ = (
        "module", "node", "key", "bases", "defines_hook", "annotation_refs",
        "ctor_refs",
    )

    def __init__(self, module: ModuleContext, node: ast.ClassDef, key):
        self.module = module
        self.node = node
        self.key = key
        self.bases: list = []          # resolved project-class keys
        self.defines_hook = any(
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in SERIALIZATION_HOOKS
            for item in node.body
        )
        self.annotation_refs: list[ast.AST] = []
        self.ctor_refs: list[ast.AST] = []
        self._collect_refs()

    def _collect_refs(self) -> None:
        for item in self.node.body:
            if isinstance(item, ast.AnnAssign):
                self.annotation_refs.append(item.annotation)
        for node in ast.walk(self.node):
            if isinstance(node, ast.AnnAssign) and _is_self_attr(node.target):
                self.annotation_refs.append(node.annotation)
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                if any(_is_self_attr(target) for target in node.targets):
                    self.ctor_refs.append(node.value.func)


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _annotation_names(annotation: ast.AST) -> "Iterator[ast.AST]":
    """Every Name/Attribute chain referenced by an annotation, string
    annotations included (``"Partition | None"`` parses and resolves)."""
    stack = [annotation]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                stack.append(ast.parse(node.value, mode="eval").body)
            except SyntaxError:
                continue
        elif isinstance(node, (ast.Name, ast.Attribute)):
            yield node
        else:
            stack.extend(ast.iter_child_nodes(node))


def _seed_classes_and_functions(project: ProjectContext):
    """The seed class keys and seed function nodes of this project."""
    seed_classes: list = []
    seed_functions: list[tuple[ModuleContext, ast.AST]] = []
    for module in project.modules:
        for node in module.tree.body:
            is_named_seed = (
                getattr(node, "name", None) in SEED_NAMES
                and (
                    module.dotted_name is None
                    or (module.dotted_name, node.name) in SEED_SYMBOLS
                    or module.package_relpath() is None
                )
            )
            # Trailing comment on the def/class line, or a standalone
            # marker comment on the line above it.
            lineno = getattr(node, "lineno", 0)
            is_marked = bool(
                {lineno, lineno - 1} & module.wire_root_lines
            )
            if not (is_named_seed or is_marked):
                continue
            if isinstance(node, ast.ClassDef):
                seed_classes.append((module, node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                seed_functions.append((module, node))
    return seed_classes, seed_functions


def _build_index(project: ProjectContext) -> dict:
    """key -> _ClassInfo for every class, with resolved base edges."""
    index: dict = {}
    for (module_name, class_name), (module, node) in project.classes.items():
        key = (module_name, class_name)
        index[key] = _ClassInfo(module, node, key)
    # Classes in loose (package-less) fixture files:
    for module in project.modules:
        if module.dotted_name is not None and module.dotted_name in project.by_name:
            continue
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                key = (module.display_path, node.name)
                index[key] = _ClassInfo(module, node, key)
    for info in index.values():
        for base in info.node.bases:
            resolved = project.resolve_class(info.module, base)
            if resolved is not None:
                base_module, base_node = resolved
                info.bases.append((base_module.dotted_name, base_node.name))
            else:
                # Same-file fixture class without a package name.
                if isinstance(base, ast.Name):
                    local_key = (info.module.display_path, base.id)
                    if local_key in index:
                        info.bases.append(local_key)
    return index


def _reachable_classes(project: ProjectContext, index: dict) -> set:
    seed_classes, seed_functions = _seed_classes_and_functions(project)
    subclasses: dict = {}
    for key, info in index.items():
        for base in info.bases:
            subclasses.setdefault(base, []).append(key)

    def resolve_ref(module: ModuleContext, ref: ast.AST):
        resolved = project.resolve_class(module, ref)
        if resolved is not None:
            return (resolved[0].dotted_name, resolved[1].name)
        if isinstance(ref, ast.Name):
            local_key = (module.display_path, ref.id)
            if local_key in index:
                return local_key
        return None

    worklist: list = []
    for module, node in seed_classes:
        key = (module.dotted_name, node.name)
        if key not in index:
            key = (module.display_path, node.name)
        if key in index:
            worklist.append(key)
    for module, node in seed_functions:
        annotations = [arg.annotation for arg in node.args.args]
        annotations.extend(arg.annotation for arg in node.args.kwonlyargs)
        annotations.append(node.returns)
        for annotation in annotations:
            if annotation is None:
                continue
            for ref in _annotation_names(annotation):
                key = resolve_ref(module, ref)
                if key is not None:
                    worklist.append(key)

    reachable: set = set()
    while worklist:
        key = worklist.pop()
        if key in reachable or key not in index:
            continue
        reachable.add(key)
        info = index[key]
        worklist.extend(info.bases)
        worklist.extend(subclasses.get(key, []))
        if _has_serialization_hook(key, index):
            # A class with custom serialization controls what ships;
            # its members do not extend the reachable set.
            continue
        for annotation in info.annotation_refs:
            for ref in _annotation_names(annotation):
                resolved = resolve_ref(info.module, ref)
                if resolved is not None:
                    worklist.append(resolved)
        for ref in info.ctor_refs:
            resolved = resolve_ref(info.module, ref)
            if resolved is not None:
                worklist.append(resolved)
    return reachable


def _has_serialization_hook(key, index: dict, _seen=None) -> bool:
    """Whether the class or a project ancestor defines a pickle hook."""
    if _seen is None:
        _seen = set()
    if key in _seen or key not in index:
        return False
    _seen.add(key)
    info = index[key]
    if info.defines_hook:
        return True
    return any(_has_serialization_hook(base, index, _seen) for base in info.bases)


def _local_function_names(method: ast.AST) -> dict[str, ast.AST]:
    """Functions/classes defined *inside* ``method`` (pickle cannot
    serialize ``<locals>``-qualified names)."""
    local: dict[str, ast.AST] = {}
    for node in ast.walk(method):
        if node is method:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            local[node.name] = node
    return local


def _free_variables(module: ModuleContext, name: str, lineno: int) -> tuple:
    """The free variables of the nested function ``name`` defined at
    ``lineno`` — ``symtable`` is the authority on closures."""
    table = module.symbol_table()
    if table is None:
        return ()
    stack = [table]
    while stack:
        current = stack.pop()
        if (
            isinstance(current, symtable.Function)
            and current.get_name() == name
            and current.get_lineno() == lineno
        ):
            return tuple(sorted(current.get_frees()))
        stack.extend(current.get_children())
    return ()


def _scan_class(info: _ClassInfo) -> "Iterator[Finding]":
    module = info.module
    for method in info.node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local_defs = _local_function_names(method)
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign):
                continue
            targets = [t for t in node.targets if _is_self_attr(t)]
            if not targets:
                continue
            attr = targets[0].attr
            value = node.value
            if isinstance(value, ast.Call):
                qualified = module.qualified_name(value.func)
                if qualified in UNSAFE_CTORS:
                    yield Finding(
                        path=module.display_path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="unpicklable-attribute",
                        message=(
                            f"self.{attr} holds {UNSAFE_CTORS[qualified]} "
                            f"({qualified}) but {info.node.name} is "
                            "wire-reachable and defines no __getstate__/"
                            "__reduce__"
                        ),
                    )
            if isinstance(value, ast.Lambda):
                yield Finding(
                    path=module.display_path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="unpicklable-callable",
                    message=(
                        f"self.{attr} holds a lambda; pickle serializes "
                        "functions by qualified name — use a module-level "
                        f"function ({info.node.name} is wire-reachable)"
                    ),
                )
            if isinstance(value, ast.Name) and value.id in local_defs:
                definition = local_defs[value.id]
                frees = ()
                if isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    frees = _free_variables(
                        module, definition.name, definition.lineno
                    )
                detail = (
                    f" closing over {', '.join(frees)}" if frees else ""
                )
                yield Finding(
                    path=module.display_path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule="unpicklable-callable",
                    message=(
                        f"self.{attr} holds the locally defined "
                        f"{value.id!r}{detail}; <locals> names never "
                        "unpickle — define it at module level "
                        f"({info.node.name} is wire-reachable)"
                    ),
                )
    # Class-body lambdas (``attr = lambda ...`` defaults).
    for item in info.node.body:
        value = None
        if isinstance(item, ast.Assign):
            value = item.value
        elif isinstance(item, ast.AnnAssign):
            value = item.value
        if isinstance(value, ast.Lambda):
            yield Finding(
                path=module.display_path,
                line=item.lineno,
                col=item.col_offset,
                rule="unpicklable-callable",
                message=(
                    f"class attribute of {info.node.name} holds a lambda; "
                    "pickle serializes functions by qualified name — use a "
                    "module-level function"
                ),
            )


def _run_pickle_rules(project: ProjectContext) -> list[Finding]:
    index = _build_index(project)
    reachable = _reachable_classes(project, index)
    findings: list[Finding] = []
    for key in sorted(reachable):
        info = index.get(key)
        if info is None or _has_serialization_hook(key, index):
            continue
        findings.extend(_scan_class(info))
    return findings


@register_rule(
    "unpicklable-attribute",
    family="pickle-safety",
    scope=PROJECT,
    description="wire-reachable class stores a lock/file/socket/queue "
    "without __getstate__/__reduce__",
)
def check_unpicklable_attribute(project: ProjectContext) -> "Iterator[Finding]":
    for finding in _run_pickle_rules(project):
        if finding.rule == "unpicklable-attribute":
            yield finding


@register_rule(
    "unpicklable-callable",
    family="pickle-safety",
    scope=PROJECT,
    description="wire-reachable class stores a lambda/closure/local class",
)
def check_unpicklable_callable(project: ProjectContext) -> "Iterator[Finding]":
    for finding in _run_pickle_rules(project):
        if finding.rule == "unpicklable-callable":
            yield finding
