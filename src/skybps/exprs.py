"""Tiny arithmetic-expression evaluator for closed-form profiles in configs.

Grammar (first match wins):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := NUMBER | 'pi' | NAME | FUNC '(' expr ')' | '(' expr ')'

NUMBER is a decimal literal, FUNC one of sin cos tan exp ln sqrt.  This is
Python's grammar with ``^`` for ``**``: ``ast.parse`` reads the text and a
whitelist of these nodes checks the tree.  Names resolve against the variables
given at call time (numpy arrays or scalars); evaluation is complex-safe.
"""

import ast
import re

import numpy as np

from .errors import ConfigError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp, "ln": np.log,
              "sqrt": np.sqrt}
# the only globals an expression sees: no builtins, so no other call exists
_NAMESPACE = {"__builtins__": {}, "pi": np.pi, **_FUNCTIONS}

_BAD = re.compile(r"[^A-Za-z0-9_\s.+\-*/^()]|\*\*")
_NUMBER = re.compile(r"(?<!\w)(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")  # not inside a name
_NODES = (ast.Expression, ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow,
          ast.UnaryOp, ast.USub, ast.Name, ast.Load)


class Expression:
    """A parsed expression; call with keyword variables to evaluate."""

    def __init__(self, text: str):
        self.text = text
        if bad := _BAD.search(text):
            raise ConfigError(f"unexpected {bad[0]!r} in expression {text!r}")
        # "007" -> " 007. ": Python reads each literal as float(text) would, never
        # as an int, hex or imaginary number, and no letter touches its end
        source = _NUMBER.sub(lambda m: f" {m[0]}{'' if re.search('[.eE]', m[0]) else '.'} ",
                             " ".join(text.split())).replace("^", "**")
        try:
            tree = ast.parse(source.strip(), mode="eval")
        except (SyntaxError, RecursionError, MemoryError):
            raise ConfigError(f"malformed expression {text!r}") from None
        names, callees = [], set()
        for node in ast.walk(tree):  # iterative: nesting depth costs no stack
            if isinstance(node, ast.Call):
                allowed = (isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS
                           and len(node.args) == 1 and not node.keywords)
                callees.add(node.func)
            elif isinstance(node, ast.Constant):
                allowed = type(node.value) is float
            else:
                allowed = isinstance(node, _NODES)
                if isinstance(node, ast.Name):
                    names.append(node)
            if not allowed:
                raise ConfigError(f"{type(node).__name__} not allowed in expression {text!r}")
        variables = {n.id for n in names if n not in callees} - {"pi"}
        if variables & _FUNCTIONS.keys():
            raise ConfigError(f"function without an argument in expression {text!r}")
        self.variables = sorted(variables)
        try:
            self._code = compile(tree, "<expression>", "eval")
        except (RecursionError, MemoryError):
            raise ConfigError(f"expression {text!r} is nested too deeply") from None

    def __call__(self, **env):
        try:
            # shared globals keep warnings' once-per-location registry across calls
            return eval(self._code, _NAMESPACE, {v: env[v] for v in self.variables if v in env})
        except NameError as exc:
            raise ConfigError(f"unbound variable {exc.name!r} in {self.text!r}") from None
        except ArithmeticError as exc:
            raise ConfigError(f"{type(exc).__name__} in expression {self.text!r}: {exc}") from None
