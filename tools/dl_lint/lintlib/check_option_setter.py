"""option-setter: every option field has a caller outside its own module.

Each independently settable option doubles the configurations tests and
benchmarks must cover, so an option earns its place only when some caller
sets it. This check collects the fields of every `struct *Options` under
src/ (nested `struct Options` included) and flags each field that no file
outside the field's own directory assigns. Setters are searched in src/,
tests/, bench/, examples/ and perfbench/: an assignment is `.field =`,
`->field =` (compound assignments too) or `&x.field` handed to a parser.

A setter counts for the struct its receiver has. The receiver's type is
the one of its nearest declaration earlier in the same file (`T x`,
`T* x`, `T& x`: a local or a parameter), and each further member of the
chain has the type its Options field declares: in `o.mint.engine.x = 1`
with `DirectLoadOptions o`, `mint` is `DirectLoadOptions::mint` and
`engine` is `MintOptions::engine`. Where a type cannot be resolved (a
member receiver declared in another file, `auto`, a template type, a
field of a struct that is not an Options struct), the rest of the chain
is matched by field name, which errs towards silence, never towards a
false finding. A field that stays configurable for deployment (a listen
address, say) carries `// dl-lint: ignore(option-setter)` on its
declaration line.
"""

import re

from .findings import Finding

NAME = "option-setter"

_SETTER_DIRS = ("src", "tests", "bench", "examples", "perfbench")

_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Options)\s*\{")
# The declarator of a data member (`type name`), once its initializer
# (`= init` or `{init}`) is cut off.
_DECL_RE = re.compile(r"^[\w:<>,*&\s]+?\s*[\s*&](\w+)$")
# The last name of a declared type: `rpc::RpcClient::Options` -> `Options`.
_TYPE_NAME_RE = re.compile(r"(\w+)[\s*&]*$")

# A member chain (`.a.b`, `->a`) that is assigned (`=`, `+=`, designated
# `{`), or whose address follows `&` (handed to a flag parser).
_CHAIN = r"(?:\s*(?:\.|->)\s*\w+)+"
_SETTER_RE = re.compile(
    r"(?P<chain>" + _CHAIN + r")\s*(?:[-+*/|&^]?=(?!=)|\{)"
    r"|&\s*(?P<recv>\w+)(?P<addr>" + _CHAIN + r")")
_RECEIVER_RE = re.compile(r"(\w+)\s*$")

# Words that can stand before a name without declaring it.
_NOT_TYPES = frozenset((
    "auto", "case", "co_return", "const", "delete", "else", "goto", "new",
    "return", "sizeof", "throw", "typename", "using", "volatile"))


def _matching_brace(code, open_idx):
    depth, j = 0, open_idx
    while j < len(code):
        depth += {"{": 1, "}": -1}.get(code[j], 0)
        if depth == 0:
            return j
        j += 1
    return len(code)


def _fields(sf):
    """(struct, field, type name, line) for each data member of each Options
    struct; the type name is None when it ends in a template argument."""
    code = sf.code
    for m in _STRUCT_RE.finditer(code):
        open_idx = m.end() - 1
        close = _matching_brace(code, open_idx)
        # Split the body into top-level statements; nested braces (lambda
        # initializers, member functions) stay inside their statement.
        depth, start, brace = 0, open_idx + 1, 0
        for j in range(open_idx + 1, close):
            c = code[j]
            if c in "{(":
                if depth == 0 and c == "{":
                    brace = j
                depth += 1
            elif c in "})":
                depth -= 1
                # A member function body ends its statement without `;`;
                # a lambda initializer (`= [] {...}()`) does not.
                head = code[start:brace]
                if (depth == 0 and c == "}" and "(" in head
                        and "=" not in head):
                    start = j + 1
            elif c == ";" and depth == 0:
                stmt_start, start = start, j + 1
                stmt = code[stmt_start:j]
                decl = re.split(r"[={]", stmt, maxsplit=1)[0].rstrip()
                if decl.lstrip().startswith(("using ", "static ", "friend ")):
                    continue  # An alias or a static constant.
                fm = _DECL_RE.match(decl.lstrip())
                if fm is None:
                    continue  # A member function declaration.
                offset = stmt_start + len(decl) - len(fm.group(1))
                tm = _TYPE_NAME_RE.search(decl.lstrip()[:fm.start(1)])
                yield (m.group(1), fm.group(1), tm.group(1) if tm else None,
                       sf.line_of(offset))


def _declared_type(code, name, before):
    """The type name of the nearest declaration of `name` (`T name`,
    `T* name`, `T& name`) ahead of offset `before`, or None."""
    decl = re.compile(r"\b(\w+)\s*[*&]?\s*\b" + re.escape(name)
                      + r"\s*[;=,(){\[]")
    found = None
    for m in decl.finditer(code, 0, before):
        found = m.group(1)
    return None if found in _NOT_TYPES else found


def _setters(sf, field_types):
    """(owner, name) for each member a setter in `sf` assigns; owner is the
    type the member belongs to, or None where it is matched by name.
    `field_types` maps (struct, field) to the field's type name."""
    for m in _SETTER_RE.finditer(sf.code):
        receiver = m.group("recv")
        if receiver is None:
            rm = _RECEIVER_RE.search(sf.code, max(0, m.start() - 80),
                                     m.start())
            receiver = rm.group(1) if rm else None
        owner = receiver and _declared_type(sf.code, receiver, m.start())
        # Every member of an assigned chain counts as set:
        # `o.mint.engine.cache_bytes = n` sets mint and engine too.
        for name in re.findall(r"\w+", m.group("chain") or m.group("addr")):
            yield owner, name
            owner = owner and field_types.get((owner, name))


def run(ctx):
    fields = []
    field_types = {}
    for sf in ctx.project.files_under("src"):
        for struct, field, type_name, line in _fields(sf):
            field_types[(struct, field)] = type_name
            if not sf.suppressed(line, NAME):
                fields.append((sf, struct, field, line))

    set_in = {}  # (owner, field) -> set of directories assigning it
    for sf in ctx.project.files_under(*_SETTER_DIRS):
        for key in _setters(sf, field_types):
            set_in.setdefault(key, set()).add(sf.path.parent)

    findings = []
    for sf, struct, field, line in fields:
        setters = set_in.get((struct, field), set()) | set_in.get(
            (None, field), set())
        if setters - {sf.path.parent}:
            continue
        findings.append(Finding(
            NAME, sf.path, line,
            f"{struct}::{field} is assigned by no file outside "
            f"{sf.path.parent.relative_to(ctx.project.root)}/",
            "replace the field with a named constant next to the code that "
            "reads it (deleting any branch only its other values reach), or "
            "mark a deployment setting `// dl-lint: ignore(option-setter)`"))
    return findings
