"""Ratchet on the number of independently settable values in the package.

A settable value is a parameter with a default (of any `def` or `lambda`,
keyword-only ones included) or an annotated class field with a default,
counted over every module of `src/rieszlab` with `ast`. Each one doubles
the configurations a test would have to cover, so the count may only go
down: a change that adds an option raises LIMIT on purpose, and says why.
The count must equal LIMIT, so a change that removes an option lowers
LIMIT with it and the next one cannot spend the slack.
"""

import ast
from pathlib import Path

import rieszlab

LIMIT = 96


def _settable_values(tree) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def test_settable_value_count_does_not_grow():
    root = Path(rieszlab.__file__).resolve().parent
    per_module = {str(path.relative_to(root)):
                  _settable_values(ast.parse(path.read_text()))
                  for path in sorted(root.rglob("*.py"))}
    total = sum(per_module.values())
    breakdown = "\n".join(f"{count:4d} {name}"
                          for name, count in per_module.items())
    assert total == LIMIT, (f"{total} settable values, LIMIT {LIMIT}; "
                            f"per module:\n{breakdown}")


def test_counter_sees_every_kind_of_default():
    source = '''
def f(a, b=1, *args, c, d=2, **kw):
    g = lambda x, y=3: x
class C:
    e: int
    f: int = 4
    g = 5
'''
    assert _settable_values(ast.parse(source)) == 4
