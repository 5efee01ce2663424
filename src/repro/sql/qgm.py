"""Simplified Query Graph Model (QGM): bound query blocks.

After parse + rewrite, :func:`build_query_graph` binds a SELECT against the
database schema and produces a tree of :class:`QueryBlock` objects — the
structure the paper's query analysis walks ("B <- set of query blocks in
Q", Algorithm 1). Each block records:

* its quantifiers (base tables or child blocks for derived tables),
* **local predicates** per quantifier (constant comparisons — the raw
  material for predicate groups),
* **join predicates** (equi-joins between quantifiers),
* residual predicates that fit neither shape (OR trees, non-equi column
  comparisons...) and are evaluated generically by the executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import BindingError
from ..storage import Database
from ..types import DataType
from . import ast
from .rewrite import rewrite_select

_JOINABLE = (ast.CompareOp.EQ,)

_LOCAL_OPS = {
    ast.CompareOp.EQ: "=",
    ast.CompareOp.NE: "<>",
    ast.CompareOp.LT: "<",
    ast.CompareOp.LE: "<=",
    ast.CompareOp.GT: ">",
    ast.CompareOp.GE: ">=",
}


@dataclass
class OutputColumn:
    """One column a block produces."""

    name: str
    dtype: DataType
    expr: ast.Expr


@dataclass
class Quantifier:
    """A range variable of a block: base table or derived child block."""

    alias: str
    table_name: Optional[str] = None
    child: Optional["QueryBlock"] = None

    @property
    def is_base(self) -> bool:
        return self.table_name is not None


@dataclass
class QueryBlock:
    """One bound SELECT block."""

    block_id: int
    quantifiers: Dict[str, Quantifier] = field(default_factory=dict)
    select_items: List[ast.SelectItem] = field(default_factory=list)
    outputs: List[OutputColumn] = field(default_factory=list)
    local_predicates: Dict[str, List] = field(default_factory=dict)
    scan_residuals: Dict[str, List[ast.BoolExpr]] = field(default_factory=dict)
    join_predicates: List = field(default_factory=list)
    residuals: List[ast.BoolExpr] = field(default_factory=list)
    group_by: List[ast.ColumnRef] = field(default_factory=list)
    having: Optional[ast.BoolExpr] = None
    order_by: List[ast.OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
    has_aggregates: bool = False

    def aliases(self) -> List[str]:
        return list(self.quantifiers)

    def base_tables(self) -> Dict[str, str]:
        """alias -> base table name, for base quantifiers only."""
        return {
            alias: q.table_name
            for alias, q in self.quantifiers.items()
            if q.is_base
        }

    def child_blocks(self) -> List["QueryBlock"]:
        return [q.child for q in self.quantifiers.values() if q.child is not None]

    def all_blocks(self) -> List["QueryBlock"]:
        """This block and all descendants, pre-order."""
        blocks = [self]
        for child in self.child_blocks():
            blocks.extend(child.all_blocks())
        return blocks

    def output_names(self) -> List[str]:
        return [o.name for o in self.outputs]

    def local_predicates_for(self, alias: str) -> List:
        return self.local_predicates.get(alias.lower(), [])


class _Binder:
    def __init__(self, database: Database):
        self.database = database
        self._next_block_id = 0

    def bind(self, select: ast.SelectStatement) -> QueryBlock:
        block = QueryBlock(block_id=self._next_block_id)
        self._next_block_id += 1

        # 1. Quantifiers (recursing into derived tables).
        visible: Dict[str, Dict[str, DataType]] = {}
        for item in select.from_items:
            alias = item.binding_name
            if alias in block.quantifiers:
                raise BindingError(f"duplicate table alias {alias!r}")
            if isinstance(item, ast.TableRef):
                if not self.database.has_table(item.name):
                    raise BindingError(f"unknown table {item.name!r}")
                schema = self.database.table(item.name).schema
                block.quantifiers[alias] = Quantifier(
                    alias=alias, table_name=schema.name
                )
                visible[alias] = {
                    c.name.lower(): c.dtype for c in schema.columns
                }
            else:
                child = self.bind(item.select)
                block.quantifiers[alias] = Quantifier(alias=alias, child=child)
                visible[alias] = {
                    o.name.lower(): o.dtype for o in child.outputs
                }
        if not block.quantifiers:
            raise BindingError("query block has no tables")
        self._visible = visible

        # 2. Select list (star expansion, qualification, output schema).
        if select.star:
            for alias, columns in visible.items():
                for name, dtype in columns.items():
                    ref = ast.ColumnRef(name=name, qualifier=alias)
                    block.select_items.append(ast.SelectItem(expr=ref, alias=None))
        else:
            for item in select.items:
                block.select_items.append(
                    ast.SelectItem(expr=self._qualify(item.expr), alias=item.alias)
                )
        for position, item in enumerate(block.select_items):
            block.outputs.append(
                OutputColumn(
                    name=item.output_name(position).lower(),
                    dtype=self._infer_dtype(item.expr),
                    expr=item.expr,
                )
            )
        names = [o.name for o in block.outputs]
        if len(set(names)) != len(names):
            # Disambiguate duplicate output names positionally (SELECT
            # a.id, b.id ... is legal SQL).
            seen: Dict[str, int] = {}
            for output in block.outputs:
                count = seen.get(output.name, 0)
                seen[output.name] = count + 1
                if count:
                    output.name = f"{output.name}_{count}"

        # 3. WHERE classification.
        for conjunct in ast.conjuncts(select.where):
            self._classify(block, conjunct)

        # 4. GROUP BY / HAVING / ORDER BY / LIMIT.
        for expr in select.group_by:
            qualified = self._qualify(expr)
            if not isinstance(qualified, ast.ColumnRef):
                raise BindingError("GROUP BY supports plain columns only")
            block.group_by.append(qualified)
        block.has_aggregates = bool(block.group_by) or any(
            _has_aggregate(i.expr) for i in block.select_items
        )
        if block.has_aggregates:
            self._validate_aggregation(block)
        if select.having is not None:
            block.having = self._qualify_bool(select.having)
            if not block.has_aggregates:
                raise BindingError("HAVING requires aggregation")
        for order in select.order_by:
            block.order_by.append(
                ast.OrderItem(
                    expr=self._qualify_output(order.expr, block),
                    descending=order.descending,
                )
            )
        block.limit = select.limit
        block.distinct = select.distinct
        return block

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def _resolve(self, ref: ast.ColumnRef) -> ast.ColumnRef:
        name = ref.name.lower()
        if ref.qualifier is not None:
            alias = ref.qualifier.lower()
            columns = self._visible.get(alias)
            if columns is None:
                raise BindingError(f"unknown table alias {ref.qualifier!r}")
            if name not in columns:
                raise BindingError(f"column {ref.qualifier}.{ref.name} not found")
            return ast.ColumnRef(name=name, qualifier=alias)
        matches = [a for a, cols in self._visible.items() if name in cols]
        if not matches:
            raise BindingError(f"column {ref.name!r} not found")
        if len(matches) > 1:
            raise BindingError(
                f"column {ref.name!r} is ambiguous (in {sorted(matches)})"
            )
        return ast.ColumnRef(name=name, qualifier=matches[0])

    def _qualify(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.ColumnRef):
            return self._resolve(expr)
        if isinstance(expr, ast.BinaryArith):
            return ast.BinaryArith(
                op=expr.op,
                left=self._qualify(expr.left),
                right=self._qualify(expr.right),
            )
        if isinstance(expr, ast.UnaryArith):
            return ast.UnaryArith(op=expr.op, operand=self._qualify(expr.operand))
        if isinstance(expr, ast.Aggregate):
            argument = (
                None if expr.argument is None else self._qualify(expr.argument)
            )
            return ast.Aggregate(
                func=expr.func, argument=argument, distinct=expr.distinct
            )
        return expr

    def _qualify_bool(self, expr: ast.BoolExpr) -> ast.BoolExpr:
        if isinstance(expr, ast.Comparison):
            return ast.Comparison(
                op=expr.op,
                left=self._qualify(expr.left),
                right=self._qualify(expr.right),
            )
        if isinstance(expr, ast.BetweenExpr):
            return ast.BetweenExpr(
                operand=self._qualify(expr.operand),
                low=self._qualify(expr.low),
                high=self._qualify(expr.high),
                negated=expr.negated,
            )
        if isinstance(expr, ast.InListExpr):
            return ast.InListExpr(
                operand=self._qualify(expr.operand),
                items=expr.items,
                negated=expr.negated,
            )
        if isinstance(expr, ast.AndExpr):
            return ast.AndExpr(tuple(self._qualify_bool(o) for o in expr.operands))
        if isinstance(expr, ast.OrExpr):
            return ast.OrExpr(tuple(self._qualify_bool(o) for o in expr.operands))
        if isinstance(expr, ast.NotExpr):
            return ast.NotExpr(self._qualify_bool(expr.operand))
        raise BindingError(f"unsupported boolean expression {expr!r}")

    def _qualify_output(self, expr: ast.Expr, block: QueryBlock) -> ast.Expr:
        """ORDER BY may reference output aliases or input columns."""
        if isinstance(expr, ast.ColumnRef) and expr.qualifier is None:
            name = expr.name.lower()
            for output in block.outputs:
                if output.name == name:
                    return output.expr
        return self._qualify(expr)

    def _infer_dtype(self, expr: ast.Expr) -> DataType:
        if isinstance(expr, ast.Literal):
            if isinstance(expr.value, str):
                return DataType.STRING
            if isinstance(expr.value, float):
                return DataType.FLOAT
            return DataType.INT
        if isinstance(expr, ast.ColumnRef):
            alias = (expr.qualifier or "").lower()
            columns = self._visible.get(alias, {})
            dtype = columns.get(expr.name.lower())
            if dtype is None:
                raise BindingError(f"cannot infer type of {expr}")
            return dtype
        if isinstance(expr, ast.Aggregate):
            if expr.func is ast.AggFunc.COUNT:
                return DataType.INT
            if expr.func is ast.AggFunc.AVG:
                return DataType.FLOAT
            if expr.argument is None:
                return DataType.FLOAT
            return self._infer_dtype(expr.argument)
        if isinstance(expr, ast.UnaryArith):
            return self._infer_dtype(expr.operand)
        if isinstance(expr, ast.BinaryArith):
            left = self._infer_dtype(expr.left)
            right = self._infer_dtype(expr.right)
            if DataType.STRING in (left, right):
                raise BindingError("arithmetic on string values")
            if expr.op == "/" or DataType.FLOAT in (left, right):
                return DataType.FLOAT
            return DataType.INT
        raise BindingError(f"cannot infer type of {expr!r}")

    # ------------------------------------------------------------------
    # Predicate classification
    # ------------------------------------------------------------------
    def _classify(self, block: QueryBlock, conjunct: ast.BoolExpr) -> None:
        from ..predicates import JoinPredicate, LocalPredicate, PredOp

        qualified = self._qualify_bool(conjunct)
        if isinstance(qualified, ast.Comparison):
            left, right = qualified.left, qualified.right
            op = qualified.op
            if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
                left, right = right, left
                op = op.flipped()
            if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
                block.local_predicates.setdefault(left.qualifier, []).append(
                    LocalPredicate(
                        alias=left.qualifier,
                        column=left.name,
                        op=PredOp(_LOCAL_OPS[op]),
                        values=(right.value,),
                    )
                )
                return
            if isinstance(left, ast.ColumnRef) and isinstance(right, ast.ColumnRef):
                if left.qualifier != right.qualifier and op in _JOINABLE:
                    block.join_predicates.append(
                        JoinPredicate(
                            left_alias=left.qualifier,
                            left_column=left.name,
                            right_alias=right.qualifier,
                            right_column=right.name,
                        )
                    )
                    return
        elif isinstance(qualified, ast.BetweenExpr) and not qualified.negated:
            if (
                isinstance(qualified.operand, ast.ColumnRef)
                and isinstance(qualified.low, ast.Literal)
                and isinstance(qualified.high, ast.Literal)
            ):
                ref = qualified.operand
                block.local_predicates.setdefault(ref.qualifier, []).append(
                    LocalPredicate(
                        alias=ref.qualifier,
                        column=ref.name,
                        op=PredOp.BETWEEN,
                        values=(qualified.low.value, qualified.high.value),
                    )
                )
                return
        elif isinstance(qualified, ast.InListExpr) and not qualified.negated:
            if isinstance(qualified.operand, ast.ColumnRef):
                ref = qualified.operand
                block.local_predicates.setdefault(ref.qualifier, []).append(
                    LocalPredicate(
                        alias=ref.qualifier,
                        column=ref.name,
                        op=PredOp.IN,
                        values=tuple(i.value for i in qualified.items),
                    )
                )
                return
        # Fallback: residual, pinned to a single quantifier when possible.
        refs = ast.column_refs(qualified)
        aliases = {r.qualifier for r in refs if r.qualifier}
        if len(aliases) == 1:
            block.scan_residuals.setdefault(aliases.pop(), []).append(qualified)
        else:
            block.residuals.append(qualified)

    def _validate_aggregation(self, block: QueryBlock) -> None:
        group_keys = {(g.qualifier, g.name) for g in block.group_by}
        for item in block.select_items:
            if _has_aggregate(item.expr):
                continue
            refs = ast.column_refs(item.expr)
            for ref in refs:
                if (ref.qualifier, ref.name) not in group_keys:
                    raise BindingError(
                        f"column {ref} must appear in GROUP BY or an aggregate"
                    )


def _has_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.Aggregate):
        return True
    if isinstance(expr, ast.BinaryArith):
        return _has_aggregate(expr.left) or _has_aggregate(expr.right)
    if isinstance(expr, ast.UnaryArith):
        return _has_aggregate(expr.operand)
    return False


def build_query_graph(
    select: ast.SelectStatement, database: Database, rewrite: bool = True
) -> QueryBlock:
    """Rewrite (optional) and bind a SELECT into a QGM block tree."""
    if rewrite:
        select = rewrite_select(select)
    return _Binder(database).bind(select)
