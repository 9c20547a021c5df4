"""Recursive-descent SQL parser.

Covers the dialect the paper's applications and debugging queries need:
SELECT (joins — including the paper's ``FROM A as E, B as F ON …`` comma
idiom — aggregation, HAVING, ORDER BY, LIMIT/OFFSET, DISTINCT), INSERT,
UPDATE, DELETE, CREATE/DROP TABLE, and CREATE/DROP INDEX. ``?``
placeholders are
numbered left to right in parse order.
"""

from __future__ import annotations

from repro.db.expr import (
    Between,
    BinaryOp,
    Case,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Param,
    Star,
    UnaryOp,
)
from repro.db.sql.lexer import Token, tokenize
from repro.db.sql.nodes import (
    ColumnDef,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropIndexStmt,
    DropTableStmt,
    InsertStmt,
    Join,
    OrderItem,
    SelectItem,
    SelectStmt,
    Statement,
    TableRef,
    UpdateStmt,
)
from repro.errors import SqlSyntaxError

#: Words that terminate an expression/alias context; a bare identifier in
#: alias position must not be one of these.
_RESERVED = {
    "SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET",
    "JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "CROSS", "ON", "AND", "OR",
    "NOT", "IN", "IS", "NULL", "LIKE", "BETWEEN", "AS", "DISTINCT", "BY",
    "ASC", "DESC", "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "CREATE", "DROP", "TABLE", "INDEX", "UNIQUE", "PRIMARY", "KEY", "CASE",
    "WHEN", "THEN", "ELSE", "END", "UNION", "EXISTS",
}


def parse_sql(sql: str) -> Statement:
    """Parse one SQL statement (a trailing semicolon is allowed)."""
    parser = _Parser(tokenize(sql), sql)
    statement = parser.parse_statement()
    parser.expect_end()
    statement.param_count = parser.param_count
    return statement


#: Parsed statements by their text, dropped whole at the limit. A parse
#: is a pure function of the text and nothing mutates a statement after
#: it, so every database of the process — a replay's dev database, each
#: shard, a replica — shares one tree per statement.
_STATEMENT_MEMO_LIMIT = 1024
_statement_memo: dict[str, Statement] = {}


def parse_cached(sql: str) -> Statement:
    """:func:`parse_sql`, parsing each distinct text once."""
    statement = _statement_memo.get(sql)
    if statement is None:
        statement = parse_sql(sql)
        if len(_statement_memo) >= _STATEMENT_MEMO_LIMIT:
            _statement_memo.clear()
        _statement_memo[sql] = statement
    return statement


class _Parser:
    def __init__(self, tokens: list[Token], sql: str):
        self._tokens = tokens
        self._sql = sql
        self._pos = 0
        self.param_count = 0

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _error(self, message: str) -> SqlSyntaxError:
        token = self._peek()
        context = self._sql[max(0, token.pos - 20) : token.pos + 20]
        return SqlSyntaxError(f"{message} near ...{context!r}", token.pos)

    def _at_keyword(self, *words: str) -> bool:
        token = self._peek()
        return token.kind == "IDENT" and token.value.upper() in words

    def _take_keyword(self, *words: str) -> bool:
        if self._at_keyword(*words):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._take_keyword(word):
            raise self._error(f"expected {word}")

    def _at_op(self, *ops: str) -> bool:
        token = self._peek()
        return token.kind == "OP" and token.value in ops

    def _take_op(self, *ops: str) -> str | None:
        if self._at_op(*ops):
            return self._advance().value  # type: ignore[return-value]
        return None

    def _expect_op(self, op: str) -> None:
        if self._take_op(op) is None:
            raise self._error(f"expected {op!r}")

    def _expect_ident(self, what: str = "identifier") -> str:
        token = self._peek()
        if token.kind != "IDENT":
            raise self._error(f"expected {what}")
        self._advance()
        return token.value  # type: ignore[return-value]

    def expect_end(self) -> None:
        self._take_op(";")
        if self._peek().kind != "EOF":
            raise self._error("unexpected trailing input")

    def _at_as_of(self) -> bool:
        """Is the cursor at an ``AS OF <csn>`` clause (vs ``AS alias``)?

        ``OF`` is deliberately not a reserved word, so ``AS OF`` is
        disambiguated from an alias literally named "of" by requiring a
        CSN-shaped operand (number or parameter) right after it.
        """
        return (
            self._at_keyword("AS")
            and self._peek(1).kind == "IDENT"
            and str(self._peek(1).value).upper() == "OF"
            and self._peek(2).kind in ("NUMBER", "PARAM")
        )

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> Statement:
        if self._at_keyword("SELECT"):
            return self._parse_select()
        if self._at_keyword("INSERT"):
            return self._parse_insert()
        if self._at_keyword("UPDATE"):
            return self._parse_update()
        if self._at_keyword("DELETE"):
            return self._parse_delete()
        if self._at_keyword("CREATE"):
            return self._parse_create()
        if self._at_keyword("DROP"):
            return self._parse_drop()
        raise self._error("expected a SQL statement")

    # -- SELECT ----------------------------------------------------------------

    def _parse_select(self) -> SelectStmt:
        self._expect_keyword("SELECT")
        stmt = SelectStmt()
        stmt.distinct = self._take_keyword("DISTINCT")
        stmt.items.append(self._parse_select_item())
        while self._take_op(","):
            stmt.items.append(self._parse_select_item())
        if self._take_keyword("FROM"):
            stmt.from_table = self._parse_table_ref()
            self._parse_joins(stmt)
            if self._at_as_of():
                # ``FROM ... AS OF <csn>`` ahead of WHERE/GROUP/ORDER.
                self._advance()  # AS
                self._advance()  # OF
                stmt.as_of = self._parse_primary()
        if self._take_keyword("WHERE"):
            stmt.where = self._parse_expr()
        if self._take_keyword("GROUP"):
            self._expect_keyword("BY")
            stmt.group_by.append(self._parse_expr())
            while self._take_op(","):
                stmt.group_by.append(self._parse_expr())
        if self._take_keyword("HAVING"):
            stmt.having = self._parse_expr()
        if self._take_keyword("ORDER"):
            self._expect_keyword("BY")
            stmt.order_by.append(self._parse_order_item())
            while self._take_op(","):
                stmt.order_by.append(self._parse_order_item())
        if self._take_keyword("LIMIT"):
            stmt.limit = self._parse_expr()
        if self._take_keyword("OFFSET"):
            stmt.offset = self._parse_expr()
        if self._at_as_of():
            if stmt.as_of is not None:
                raise self._error("duplicate AS OF clause")
            self._advance()  # AS
            self._advance()  # OF
            stmt.as_of = self._parse_primary()
        return stmt

    def _parse_select_item(self) -> SelectItem:
        if self._at_op("*"):
            self._advance()
            return SelectItem(expr=None, star=True)
        # alias.* form
        token = self._peek()
        if (
            token.kind == "IDENT"
            and self._peek(1).kind == "OP"
            and self._peek(1).value == "."
            and self._peek(2).kind == "OP"
            and self._peek(2).value == "*"
        ):
            qualifier = self._expect_ident()
            self._advance()  # '.'
            self._advance()  # '*'
            return SelectItem(expr=None, star=True, star_qualifier=qualifier)
        expr = self._parse_expr()
        alias = None
        if self._take_keyword("AS"):
            alias = self._expect_ident("alias")
        elif (
            self._peek().kind == "IDENT"
            and self._peek().value.upper() not in _RESERVED
        ):
            alias = self._expect_ident()
        return SelectItem(expr=expr, alias=alias)

    def _parse_table_ref(self) -> TableRef:
        table = self._expect_ident("table name")
        alias = None
        if self._at_as_of():
            # ``FROM items AS OF 5``: the AS belongs to the statement's
            # trailing AS-OF clause, not to a table alias named "of".
            pass
        elif self._take_keyword("AS"):
            alias = self._expect_ident("alias")
        elif (
            self._peek().kind == "IDENT"
            and self._peek().value.upper() not in _RESERVED
        ):
            alias = self._expect_ident()
        return TableRef(table=table, alias=alias)

    def _parse_joins(self, stmt: SelectStmt) -> None:
        while True:
            if self._take_op(","):
                table = self._parse_table_ref()
                on = None
                kind = "cross"
                if self._take_keyword("ON"):
                    # Paper idiom: comma join with an ON clause is an
                    # inner join.
                    on = self._parse_expr()
                    kind = "inner"
                stmt.joins.append(Join(kind=kind, table=table, on=on))
                continue
            if self._at_keyword("JOIN", "INNER", "LEFT", "CROSS"):
                kind = "inner"
                if self._take_keyword("LEFT"):
                    self._take_keyword("OUTER")
                    kind = "left"
                elif self._take_keyword("CROSS"):
                    kind = "cross"
                else:
                    self._take_keyword("INNER")
                self._expect_keyword("JOIN")
                table = self._parse_table_ref()
                on = None
                if kind != "cross":
                    self._expect_keyword("ON")
                    on = self._parse_expr()
                stmt.joins.append(Join(kind=kind, table=table, on=on))
                continue
            break

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expr()
        ascending = True
        if self._take_keyword("DESC"):
            ascending = False
        else:
            self._take_keyword("ASC")
        return OrderItem(expr=expr, ascending=ascending)

    # -- INSERT -----------------------------------------------------------------

    def _parse_insert(self) -> InsertStmt:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        stmt = InsertStmt()
        stmt.table = self._expect_ident("table name")
        if self._at_op("("):
            self._advance()
            columns = [self._expect_ident("column name")]
            while self._take_op(","):
                columns.append(self._expect_ident("column name"))
            self._expect_op(")")
            stmt.columns = columns
        if self._at_keyword("SELECT"):
            stmt.select = self._parse_select()
            return stmt
        self._expect_keyword("VALUES")
        stmt.rows.append(self._parse_value_tuple())
        while self._take_op(","):
            stmt.rows.append(self._parse_value_tuple())
        return stmt

    def _parse_value_tuple(self) -> list[Expr]:
        self._expect_op("(")
        values = [self._parse_expr()]
        while self._take_op(","):
            values.append(self._parse_expr())
        self._expect_op(")")
        return values

    # -- UPDATE / DELETE -----------------------------------------------------------

    def _parse_update(self) -> UpdateStmt:
        self._expect_keyword("UPDATE")
        stmt = UpdateStmt()
        stmt.table = self._parse_table_ref()
        self._expect_keyword("SET")
        stmt.assignments.append(self._parse_assignment())
        while self._take_op(","):
            stmt.assignments.append(self._parse_assignment())
        if self._take_keyword("WHERE"):
            stmt.where = self._parse_expr()
        return stmt

    def _parse_assignment(self) -> tuple[str, Expr]:
        column = self._expect_ident("column name")
        self._expect_op("=")
        return column, self._parse_expr()

    def _parse_delete(self) -> DeleteStmt:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        stmt = DeleteStmt()
        stmt.table = self._parse_table_ref()
        if self._take_keyword("WHERE"):
            stmt.where = self._parse_expr()
        return stmt

    # -- DDL ------------------------------------------------------------------------

    def _parse_create(self) -> Statement:
        self._expect_keyword("CREATE")
        if self._take_keyword("TABLE"):
            return self._parse_create_table()
        unique = self._take_keyword("UNIQUE")
        sorted_index = self._take_keyword("SORTED")
        if self._take_keyword("INDEX"):
            return self._parse_create_index(unique, sorted_index)
        raise self._error("expected TABLE or INDEX after CREATE")

    def _parse_create_table(self) -> CreateTableStmt:
        stmt = CreateTableStmt()
        if self._take_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            stmt.if_not_exists = True
        stmt.name = self._expect_ident("table name")
        self._expect_op("(")
        self._parse_table_element(stmt)
        while self._take_op(","):
            self._parse_table_element(stmt)
        self._expect_op(")")
        return stmt

    def _parse_table_element(self, stmt: CreateTableStmt) -> None:
        if self._at_keyword("UNIQUE") and self._peek(1).value == "(":
            self._advance()
            stmt.unique_constraints.append(self._parse_column_name_list())
            return
        if self._at_keyword("PRIMARY"):
            self._advance()
            self._expect_keyword("KEY")
            if stmt.primary_key is not None:
                raise self._error("multiple PRIMARY KEY constraints")
            stmt.primary_key = self._parse_column_name_list()
            return
        name = self._expect_ident("column name")
        type_name = self._expect_ident("type name")
        column = ColumnDef(name=name, type_name=type_name)
        while True:
            if self._take_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                column.primary_key = True
            elif self._take_keyword("NOT"):
                self._expect_keyword("NULL")
                column.not_null = True
            elif self._take_keyword("UNIQUE"):
                column.unique = True
            elif self._take_keyword("DEFAULT"):
                column.default = self._parse_primary()
            else:
                break
        stmt.columns.append(column)

    def _parse_column_name_list(self) -> list[str]:
        self._expect_op("(")
        names = [self._expect_ident("column name")]
        while self._take_op(","):
            names.append(self._expect_ident("column name"))
        self._expect_op(")")
        return names

    def _parse_create_index(self, unique: bool, sorted_index: bool) -> CreateIndexStmt:
        stmt = CreateIndexStmt(unique=unique, sorted_index=sorted_index)
        stmt.name = self._expect_ident("index name")
        self._expect_keyword("ON")
        stmt.table = self._expect_ident("table name")
        stmt.columns = self._parse_column_name_list()
        return stmt

    def _parse_drop(self) -> Statement:
        self._expect_keyword("DROP")
        if self._take_keyword("INDEX"):
            index_stmt = DropIndexStmt()
            if self._take_keyword("IF"):
                self._expect_keyword("EXISTS")
                index_stmt.if_exists = True
            index_stmt.name = self._expect_ident("index name")
            self._expect_keyword("ON")
            index_stmt.table = self._expect_ident("table name")
            return index_stmt
        self._expect_keyword("TABLE")
        stmt = DropTableStmt()
        if self._take_keyword("IF"):
            self._expect_keyword("EXISTS")
            stmt.if_exists = True
        stmt.name = self._expect_ident("table name")
        return stmt

    # -- expressions -------------------------------------------------------------
    # Precedence (low to high): OR, AND, NOT, predicates/comparison,
    # additive (+ - ||), multiplicative (* / %), unary, primary.

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._take_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._take_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expr:
        if self._take_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expr:
        left = self._parse_additive()
        op = self._take_op("=", "==", "!=", "<>", "<", "<=", ">", ">=")
        if op is not None:
            return BinaryOp(op, left, self._parse_additive())
        if self._take_keyword("IS"):
            negated = self._take_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNull(left, negated=negated)
        negated = False
        if self._at_keyword("NOT") and self._peek(1).kind == "IDENT" and str(
            self._peek(1).value
        ).upper() in ("IN", "BETWEEN", "LIKE"):
            self._advance()
            negated = True
        if self._take_keyword("IN"):
            self._expect_op("(")
            items = [self._parse_expr()]
            while self._take_op(","):
                items.append(self._parse_expr())
            self._expect_op(")")
            return InList(left, items, negated=negated)
        if self._take_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)
        if self._take_keyword("LIKE"):
            return Like(left, self._parse_additive(), negated=negated)
        if negated:  # pragma: no cover - 'NOT' consumed but no predicate
            raise self._error("expected IN, BETWEEN, or LIKE after NOT")
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while True:
            op = self._take_op("+", "-", "||")
            if op is None:
                return left
            left = BinaryOp(op, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while True:
            op = self._take_op("*", "/", "%")
            if op is None:
                return left
            left = BinaryOp(op, left, self._parse_unary())

    def _parse_unary(self) -> Expr:
        op = self._take_op("-", "+")
        if op is not None:
            operand = self._parse_unary()
            # Fold sign into numeric literals so "-1" round-trips as a
            # literal rather than a unary expression.
            if isinstance(operand, Literal) and isinstance(
                operand.value, (int, float)
            ) and not isinstance(operand.value, bool):
                return Literal(-operand.value if op == "-" else operand.value)
            return UnaryOp(op, operand)
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.kind == "NUMBER":
            self._advance()
            return Literal(token.value)
        if token.kind == "STRING":
            self._advance()
            return Literal(token.value)
        if token.kind == "PARAM":
            self._advance()
            param = Param(self.param_count)
            self.param_count += 1
            return param
        if self._at_op("("):
            self._advance()
            expr = self._parse_expr()
            self._expect_op(")")
            return expr
        if token.kind == "IDENT":
            upper = str(token.value).upper()
            if upper == "NULL":
                self._advance()
                return Literal(None)
            if upper == "TRUE":
                self._advance()
                return Literal(True)
            if upper == "FALSE":
                self._advance()
                return Literal(False)
            if upper == "CASE":
                return self._parse_case()
            # Function call?
            if self._peek(1).kind == "OP" and self._peek(1).value == "(":
                return self._parse_func_call()
            name = self._expect_ident()
            if self._at_op(".") :
                self._advance()
                if self._at_op("*"):
                    raise self._error("'.*' is only allowed in SELECT lists")
                column = self._expect_ident("column name")
                return ColumnRef(column, qualifier=name)
            return ColumnRef(name)
        raise self._error("expected an expression")

    def _parse_case(self) -> Expr:
        self._expect_keyword("CASE")
        branches: list[tuple[Expr, Expr]] = []
        default: Expr | None = None
        while self._take_keyword("WHEN"):
            cond = self._parse_expr()
            self._expect_keyword("THEN")
            branches.append((cond, self._parse_expr()))
        if not branches:
            raise self._error("CASE requires at least one WHEN branch")
        if self._take_keyword("ELSE"):
            default = self._parse_expr()
        self._expect_keyword("END")
        return Case(branches, default)

    def _parse_func_call(self) -> Expr:
        name = self._expect_ident("function name")
        self._expect_op("(")
        if self._at_op("*"):
            self._advance()
            self._expect_op(")")
            return FuncCall(name, [], star=True)
        distinct = self._take_keyword("DISTINCT")
        args: list[Expr] = []
        if not self._at_op(")"):
            args.append(self._parse_expr())
            while self._take_op(","):
                args.append(self._parse_expr())
        self._expect_op(")")
        return FuncCall(name, args, distinct=distinct)
