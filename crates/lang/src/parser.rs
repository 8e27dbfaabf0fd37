//! Recursive-descent parsers for TriggerMan commands, expressions, and the
//! SQL subset.

use crate::ast::*;
use crate::lexer::{tokenize, Token};
use tman_common::{DataType, Result, TmanError};

/// Parse one TriggerMan command.
pub fn parse_command(input: &str) -> Result<Command> {
    let mut p = Parser::new(input)?;
    let cmd = p.command()?;
    p.expect_end()?;
    Ok(cmd)
}

/// Parse a standalone expression (tests, console `eval`).
pub fn parse_expression(input: &str) -> Result<Expr> {
    let mut p = Parser::new(input)?;
    let e = p.expr()?;
    p.expect_end()?;
    Ok(e)
}

/// Parse one SQL statement (the `execSQL` subset).
pub fn parse_sql(input: &str) -> Result<SqlStmt> {
    let mut p = Parser::new(input)?;
    let s = p.sql_stmt()?;
    // Allow a trailing semicolon.
    p.eat(&Token::Semi);
    p.expect_end()?;
    Ok(s)
}

/// The parser never moves back, so a token it has consumed is never read
/// again: [`Parser::next`] takes it out of `toks` rather than copying it.
struct Parser<'a> {
    toks: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Parser<'a>> {
        Ok(Parser {
            toks: tokenize(input)?,
            pos: 0,
        })
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.toks.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token<'a>> {
        self.toks.get(self.pos + 1)
    }

    fn next(&mut self) -> Result<Token<'a>> {
        let slot = self
            .toks
            .get_mut(self.pos)
            .ok_or_else(|| TmanError::Parse("unexpected end of input".into()))?;
        self.pos += 1;
        // What is left behind is behind `pos`, where nothing looks.
        Ok(std::mem::replace(slot, Token::Semi))
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        self.peek().map(|t| t.is_kw(kw)).unwrap_or(false)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{kw}'")))
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{t}'")))
        }
    }

    /// An identifier, borrowed from the input: for one the AST does not
    /// keep.
    fn word(&mut self) -> Result<&'a str> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            t => Err(TmanError::Parse(format!(
                "expected identifier, found '{t}'"
            ))),
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.word().map(str::to_string)
    }

    fn string(&mut self) -> Result<String> {
        match self.next()? {
            Token::Str(s) => Ok(s.into_owned()),
            t => Err(TmanError::Parse(format!(
                "expected string literal, found '{t}'"
            ))),
        }
    }

    fn int_literal(&mut self) -> Result<i64> {
        match self.next()? {
            Token::Int(i) => Ok(i),
            t => Err(TmanError::Parse(format!(
                "expected integer literal, found '{t}'"
            ))),
        }
    }

    fn expect_end(&self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(TmanError::Parse(format!("trailing input at '{t}'"))),
        }
    }

    fn err(&self, msg: &str) -> TmanError {
        match self.peek() {
            Some(t) => TmanError::Parse(format!("{msg}, found '{t}'")),
            None => TmanError::Parse(format!("{msg}, found end of input")),
        }
    }

    // ----- commands ------------------------------------------------------

    fn command(&mut self) -> Result<Command> {
        if self.eat_kw("create") {
            self.expect_kw("trigger")?;
            // `create trigger set NAME` vs a trigger literally named "set":
            // a trigger definition must continue with a clause keyword, so
            // `set` followed by a bare identifier at the end or another
            // identifier is a trigger-set creation.
            if self.peek_kw("set") && matches!(self.peek2(), Some(Token::Ident(_))) {
                self.pos += 1;
                return Ok(Command::CreateTriggerSet(self.ident()?));
            }
            return Ok(Command::CreateTrigger(self.create_trigger()?));
        }
        if self.eat_kw("drop") {
            self.expect_kw("trigger")?;
            if self.peek_kw("set") && matches!(self.peek2(), Some(Token::Ident(_))) {
                self.pos += 1;
                return Ok(Command::DropTriggerSet(self.ident()?));
            }
            return Ok(Command::DropTrigger(self.ident()?));
        }
        for (kw, enabled) in [("enable", true), ("disable", false)] {
            if self.peek_kw(kw) {
                self.pos += 1;
                self.expect_kw("trigger")?;
                if self.peek_kw("set") && matches!(self.peek2(), Some(Token::Ident(_))) {
                    self.pos += 1;
                    return Ok(Command::SetTriggerSetEnabled {
                        name: self.ident()?,
                        enabled,
                    });
                }
                return Ok(Command::SetTriggerEnabled {
                    name: self.ident()?,
                    enabled,
                });
            }
        }
        if self.eat_kw("show") {
            self.expect_kw("stats")?;
            let subsystem = match self.peek() {
                Some(Token::Ident(_)) => Some(self.ident()?),
                _ => None,
            };
            return Ok(Command::ShowStats { subsystem });
        }
        if self.eat_kw("trace") {
            if self.eat_kw("last") {
                let n = self.int_literal()?;
                if n < 1 {
                    return Err(TmanError::Parse("trace last needs a count >= 1".into()));
                }
                return Ok(Command::TraceLast { n: n as usize });
            }
            self.expect_kw("token")?;
            let id = self.int_literal()?;
            if id < 0 {
                return Err(TmanError::Parse("trace ids are non-negative".into()));
            }
            return Ok(Command::TraceToken { id: id as u64 });
        }
        if self.eat_kw("define") {
            if self.eat_kw("connection") {
                return self.define_connection();
            }
            self.expect_kw("data")?;
            self.expect_kw("source")?;
            let name = self.ident()?;
            if self.eat(&Token::LParen) {
                let columns = self.column_defs()?;
                self.expect(&Token::RParen)?;
                let connection = self.opt_via()?;
                return Ok(Command::DefineDataSource {
                    name,
                    columns: Some(columns),
                    from_table: None,
                    connection,
                });
            }
            if self.eat_kw("from") {
                self.expect_kw("table")?;
                let table = self.ident()?;
                let connection = self.opt_via()?;
                return Ok(Command::DefineDataSource {
                    name,
                    columns: None,
                    from_table: Some(table),
                    connection,
                });
            }
            return Err(self.err("expected '(' schema or 'from table'"));
        }
        Err(self.err("expected a TriggerMan command"))
    }

    fn opt_via(&mut self) -> Result<Option<String>> {
        if self.eat_kw("via") {
            Ok(Some(self.ident()?))
        } else {
            Ok(None)
        }
    }

    fn define_connection(&mut self) -> Result<Command> {
        let name = self.ident()?;
        let mut def = ConnectionDef {
            name,
            dbtype: "local".into(),
            host: None,
            server: None,
            user: None,
            password: None,
            is_default: false,
        };
        loop {
            if self.eat_kw("type") {
                def.dbtype = self.string()?;
            } else if self.eat_kw("host") {
                def.host = Some(self.string()?);
            } else if self.eat_kw("server") {
                def.server = Some(self.string()?);
            } else if self.eat_kw("user") {
                def.user = Some(self.string()?);
            } else if self.eat_kw("password") {
                def.password = Some(self.string()?);
            } else if self.eat_kw("default") {
                def.is_default = true;
            } else {
                break;
            }
        }
        Ok(Command::DefineConnection(def))
    }

    fn create_trigger(&mut self) -> Result<CreateTrigger> {
        let name = self.ident()?;
        let mut t = CreateTrigger {
            name,
            set: None,
            from: Vec::new(),
            on: None,
            when: None,
            window: None,
            group_by: Vec::new(),
            having: None,
            action: Action::Notify(String::new()),
        };
        if self.eat_kw("in") {
            t.set = Some(self.ident()?);
        }
        // §2 shows from/on/when in that order, but the IrisHouseAlert
        // example puts `on` before `from`; accept the clauses in any order.
        loop {
            if self.eat_kw("from") {
                loop {
                    let source = self.ident()?;
                    let alias = match self.peek() {
                        Some(Token::Ident(s)) if !is_clause_kw(s) => Some(self.ident()?),
                        _ => None,
                    };
                    t.from.push(FromItem { source, alias });
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            } else if self.eat_kw("on") {
                t.on = Some(self.event_spec()?);
            } else if self.eat_kw("when") {
                // `when count >= K within W` is a pure windowed threshold;
                // `when <pred> count >= K within W` filters first. The
                // window form is recognized only as `count` followed by
                // `>=`, so a bare column named `count` still parses inside
                // the predicate (e.g. `when count = 5`).
                if self.peek_kw("count") && self.peek2() == Some(&Token::Ge) {
                    t.window = Some(self.window_spec()?);
                } else {
                    t.when = Some(self.expr()?);
                    if self.peek_kw("count") && self.peek2() == Some(&Token::Ge) {
                        t.window = Some(self.window_spec()?);
                    }
                }
            } else if self.peek_kw("group") {
                self.pos += 1;
                self.expect_kw("by")?;
                loop {
                    t.group_by.push(self.expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
            } else if self.eat_kw("having") {
                t.having = Some(self.expr()?);
            } else if self.eat_kw("do") {
                t.action = self.action()?;
                return Ok(t);
            } else {
                return Err(self.err("expected trigger clause or 'do'"));
            }
        }
    }

    /// `count >= K within N <unit>` — the windowed-threshold clause.
    fn window_spec(&mut self) -> Result<WindowSpec> {
        self.expect_kw("count")?;
        self.expect(&Token::Ge)?;
        let count = self.int_literal()?;
        if count < 1 {
            return Err(TmanError::Parse(
                "window threshold count must be >= 1".into(),
            ));
        }
        self.expect_kw("within")?;
        let amount = self.int_literal()?;
        if amount < 1 {
            return Err(TmanError::Parse("window duration must be positive".into()));
        }
        let unit = self.word()?;
        let per_ns: u64 = match unit.to_ascii_lowercase().as_str() {
            "ms" | "millisecond" | "milliseconds" => 1_000_000,
            "s" | "sec" | "secs" | "second" | "seconds" => 1_000_000_000,
            "min" | "mins" | "minute" | "minutes" => 60_000_000_000,
            "h" | "hour" | "hours" => 3_600_000_000_000,
            other => {
                return Err(TmanError::Parse(format!(
                    "unknown window unit '{other}' (ms/seconds/minutes/hours)"
                )))
            }
        };
        let within_ns = (amount as u64).checked_mul(per_ns).ok_or_else(|| {
            TmanError::Parse("window duration overflows a u64 nanosecond count".into())
        })?;
        Ok(WindowSpec {
            count: count as u64,
            within_ns,
        })
    }

    fn event_spec(&mut self) -> Result<EventSpec> {
        if self.eat_kw("insert") {
            self.expect_kw("to")?;
            return Ok(EventSpec {
                kind: EventSpecKind::Insert,
                target: self.ident()?,
            });
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            return Ok(EventSpec {
                kind: EventSpecKind::Delete,
                target: self.ident()?,
            });
        }
        if self.eat_kw("update") {
            if self.eat(&Token::LParen) {
                // on update(emp.salary, emp.dept)
                let mut target = None;
                let mut cols = Vec::new();
                loop {
                    let q = self.ident()?;
                    self.expect(&Token::Dot)?;
                    let col = self.ident()?;
                    match &target {
                        None => target = Some(q),
                        Some(t) if t.eq_ignore_ascii_case(&q) => {}
                        Some(t) => {
                            return Err(TmanError::Parse(format!(
                                "update column list mixes sources '{t}' and '{q}'"
                            )))
                        }
                    }
                    cols.push(col);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                return Ok(EventSpec {
                    kind: EventSpecKind::Update(cols),
                    target: target.expect("at least one column"),
                });
            }
            self.expect_kw("to")?;
            return Ok(EventSpec {
                kind: EventSpecKind::Update(Vec::new()),
                target: self.ident()?,
            });
        }
        Err(self.err("expected insert/delete/update event"))
    }

    fn action(&mut self) -> Result<Action> {
        if self.eat_kw("execsql") {
            return Ok(Action::ExecSql(self.string()?));
        }
        if self.eat_kw("raise") {
            self.expect_kw("event")?;
            let name = self.ident()?;
            let mut args = Vec::new();
            if self.eat(&Token::LParen) && !self.eat(&Token::RParen) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            }
            return Ok(Action::RaiseEvent { name, args });
        }
        if self.eat_kw("notify") {
            return Ok(Action::Notify(self.string()?));
        }
        Err(self.err("expected execSQL / raise event / notify action"))
    }

    fn column_defs(&mut self) -> Result<Vec<ColumnDef>> {
        let mut cols = Vec::new();
        loop {
            let name = self.ident()?;
            let ty = self.data_type()?;
            cols.push(ColumnDef { name, ty });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(cols)
    }

    fn data_type(&mut self) -> Result<DataType> {
        let name = self.word()?;
        let lower = name.to_ascii_lowercase();
        match lower.as_str() {
            "integer" | "int" | "bigint" => Ok(DataType::Int),
            "float" | "double" | "real" => Ok(DataType::Float),
            "char" | "varchar" => {
                let n = if self.eat(&Token::LParen) {
                    let n = match self.next()? {
                        Token::Int(i) if (1..=u16::MAX as i64).contains(&i) => i as u16,
                        t => return Err(TmanError::Parse(format!("bad length '{t}' for {lower}"))),
                    };
                    self.expect(&Token::RParen)?;
                    n
                } else if lower == "char" {
                    1
                } else {
                    255
                };
                Ok(if lower == "char" {
                    DataType::Char(n)
                } else {
                    DataType::Varchar(n)
                })
            }
            _ => Err(TmanError::Parse(format!("unknown type '{name}'"))),
        }
    }

    // ----- SQL subset -----------------------------------------------------

    fn sql_stmt(&mut self) -> Result<SqlStmt> {
        if self.eat_kw("create") {
            if self.eat_kw("table") {
                let name = self.ident()?;
                self.expect(&Token::LParen)?;
                let columns = self.column_defs()?;
                self.expect(&Token::RParen)?;
                return Ok(SqlStmt::CreateTable { name, columns });
            }
            if self.eat_kw("index") {
                let name = self.ident()?;
                self.expect_kw("on")?;
                let table = self.ident()?;
                self.expect(&Token::LParen)?;
                let mut columns = vec![self.ident()?];
                while self.eat(&Token::Comma) {
                    columns.push(self.ident()?);
                }
                self.expect(&Token::RParen)?;
                return Ok(SqlStmt::CreateIndex {
                    name,
                    table,
                    columns,
                });
            }
            return Err(self.err("expected TABLE or INDEX after CREATE"));
        }
        if self.eat_kw("drop") {
            self.expect_kw("table")?;
            return Ok(SqlStmt::DropTable(self.ident()?));
        }
        if self.eat_kw("insert") {
            self.expect_kw("into")?;
            let table = self.ident()?;
            self.expect_kw("values")?;
            self.expect(&Token::LParen)?;
            let mut values = vec![self.expr()?];
            while self.eat(&Token::Comma) {
                values.push(self.expr()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(SqlStmt::Insert { table, values });
        }
        if self.eat_kw("update") {
            let table = self.ident()?;
            self.expect_kw("set")?;
            let mut sets = Vec::new();
            loop {
                let col = self.ident()?;
                self.expect(&Token::Eq)?;
                sets.push((col, self.expr()?));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            let filter = self.opt_where()?;
            return Ok(SqlStmt::Update {
                table,
                sets,
                filter,
            });
        }
        if self.eat_kw("delete") {
            self.expect_kw("from")?;
            let table = self.ident()?;
            let filter = self.opt_where()?;
            return Ok(SqlStmt::Delete { table, filter });
        }
        if self.eat_kw("select") {
            let cols = if self.eat(&Token::Star) {
                SelectCols::Star
            } else {
                let mut es = vec![self.expr()?];
                while self.eat(&Token::Comma) {
                    es.push(self.expr()?);
                }
                SelectCols::Exprs(es)
            };
            self.expect_kw("from")?;
            let table = self.ident()?;
            let filter = self.opt_where()?;
            return Ok(SqlStmt::Select {
                cols,
                table,
                filter,
            });
        }
        Err(self.err("expected a SQL statement"))
    }

    fn opt_where(&mut self) -> Result<Option<Expr>> {
        if self.eat_kw("where") {
            Ok(Some(self.expr()?))
        } else {
            Ok(None)
        }
    }

    // ----- expressions ----------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut e = self.and_expr()?;
        while self.eat_kw("or") {
            e = Expr::bin(BinaryOp::Or, e, self.and_expr()?);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut e = self.not_expr()?;
        while self.eat_kw("and") {
            e = Expr::bin(BinaryOp::And, e, self.not_expr()?);
        }
        Ok(e)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(self.not_expr()?),
            });
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let left = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinaryOp::Eq),
            Some(Token::Ne) => Some(BinaryOp::Ne),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::Le) => Some(BinaryOp::Le),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::Ge) => Some(BinaryOp::Ge),
            Some(t) if t.is_kw("like") => Some(BinaryOp::Like),
            Some(t) if t.is_kw("between") => None, // handled below
            Some(t) if t.is_kw("is") => None,      // handled below
            _ => return Ok(left),
        };
        if let Some(op) = op {
            self.pos += 1;
            return Ok(Expr::bin(op, left, self.add_expr()?));
        }
        if self.eat_kw("between") {
            // a BETWEEN lo AND hi  ⇒  a >= lo AND a <= hi
            let lo = self.add_expr()?;
            self.expect_kw("and")?;
            let hi = self.add_expr()?;
            return Ok(Expr::bin(
                BinaryOp::And,
                Expr::bin(BinaryOp::Ge, left.clone(), lo),
                Expr::bin(BinaryOp::Le, left, hi),
            ));
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            let test = Expr::Call {
                name: "is_null".into(),
                args: vec![left],
            };
            return Ok(if negated {
                Expr::Unary {
                    op: UnaryOp::Not,
                    expr: Box::new(test),
                }
            } else {
                test
            });
        }
        unreachable!("all comparison branches return");
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => return Ok(e),
            };
            self.pos += 1;
            e = Expr::bin(op, e, self.mul_expr()?);
        }
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut e = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                _ => return Ok(e),
            };
            self.pos += 1;
            e = Expr::bin(op, e, self.unary_expr()?);
        }
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.eat(&Token::Minus) {
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(self.unary_expr()?),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        // Checked before the token is taken, so the error can show it.
        let starts_expr = |t: &Token| {
            use Token::*;
            matches!(t, Int(_) | Float(_) | Str(_) | LParen | Colon | Ident(_))
        };
        if !self.peek().is_some_and(starts_expr) {
            return Err(self.err("expected expression"));
        }
        match self.next()? {
            Token::Int(i) => Ok(Expr::Literal(Literal::Int(i))),
            Token::Float(f) => Ok(Expr::Literal(Literal::Float(f))),
            Token::Str(s) => Ok(Expr::Literal(Literal::Str(s.into_owned()))),
            Token::LParen => {
                let e = self.expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Colon => {
                let which = self.word()?;
                let new = if which.eq_ignore_ascii_case("new") {
                    true
                } else if which.eq_ignore_ascii_case("old") {
                    false
                } else {
                    return Err(TmanError::Parse(format!(
                        "expected NEW or OLD after ':', found '{which}'"
                    )));
                };
                self.expect(&Token::Dot)?;
                let source = self.ident()?;
                self.expect(&Token::Dot)?;
                let column = self.ident()?;
                Ok(Expr::Transition {
                    new,
                    source,
                    column,
                })
            }
            Token::Ident(name) => {
                if name.eq_ignore_ascii_case("null") {
                    return Ok(Expr::Literal(Literal::Null));
                }
                if self.eat(&Token::Dot) {
                    let column = self.ident()?;
                    return Ok(Expr::Column {
                        qualifier: Some(name.to_string()),
                        column,
                    });
                }
                let name = name.to_string();
                if self.eat(&Token::LParen) {
                    let mut args = Vec::new();
                    if !self.eat(&Token::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Token::Comma) {
                                break;
                            }
                        }
                        self.expect(&Token::RParen)?;
                    }
                    return Ok(Expr::Call { name, args });
                }
                Ok(Expr::Column {
                    qualifier: None,
                    column: name,
                })
            }
            _ => unreachable!("starts_expr admits no other token"),
        }
    }
}

fn is_clause_kw(s: &str) -> bool {
    ["from", "on", "when", "group", "having", "do", "in"]
        .iter()
        .any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_update_fred() {
        let cmd = parse_command(
            "create trigger updateFred from emp on update(emp.salary) \
             when emp.name = 'Bob' \
             do execSQL 'update emp set salary=:NEW.emp.salary where emp.name= ''Fred'''",
        )
        .unwrap();
        let Command::CreateTrigger(t) = cmd else {
            panic!("wrong kind")
        };
        assert_eq!(t.name, "updateFred");
        assert_eq!(t.from.len(), 1);
        assert_eq!(t.from[0].source, "emp");
        let on = t.on.unwrap();
        assert_eq!(on.target, "emp");
        assert_eq!(on.kind, EventSpecKind::Update(vec!["salary".into()]));
        let Action::ExecSql(sql) = t.action else {
            panic!("wrong action")
        };
        assert!(sql.contains(":NEW.emp.salary"));
        assert!(sql.contains("'Fred'"));
        // And the embedded SQL parses too, after macro substitution is
        // simulated by the engine; raw it still parses as transition ref.
        let stmt = parse_sql(&sql).unwrap();
        assert!(matches!(stmt, SqlStmt::Update { .. }));
    }

    #[test]
    fn paper_example_iris_house_alert() {
        let cmd = parse_command(
            "create trigger IrisHouseAlert on insert to house \
             from salesperson s, house h, represents r \
             when s.name = 'Iris' and s.spno=r.spno and r.nno=h.nno \
             do raise event NewHouseInIrisNeighborhood(h.hno, h.address)",
        )
        .unwrap();
        let Command::CreateTrigger(t) = cmd else {
            panic!()
        };
        assert_eq!(t.from.len(), 3);
        assert_eq!(t.from[1].var_name(), "h");
        assert_eq!(t.on.as_ref().unwrap().kind, EventSpecKind::Insert);
        assert_eq!(t.on.as_ref().unwrap().target, "house");
        let Action::RaiseEvent { name, args } = &t.action else {
            panic!()
        };
        assert_eq!(name, "NewHouseInIrisNeighborhood");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn trigger_sets_and_in_clause() {
        assert_eq!(
            parse_command("create trigger set alerts").unwrap(),
            Command::CreateTriggerSet("alerts".into())
        );
        let Command::CreateTrigger(t) = parse_command(
            "create trigger t1 in alerts from emp when emp.salary > 10 do notify 'hi'",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(t.set.as_deref(), Some("alerts"));
        assert_eq!(
            parse_command("drop trigger set alerts").unwrap(),
            Command::DropTriggerSet("alerts".into())
        );
        assert_eq!(
            parse_command("drop trigger t1").unwrap(),
            Command::DropTrigger("t1".into())
        );
    }

    #[test]
    fn enable_disable() {
        assert_eq!(
            parse_command("disable trigger t9").unwrap(),
            Command::SetTriggerEnabled {
                name: "t9".into(),
                enabled: false
            }
        );
        assert_eq!(
            parse_command("enable trigger set s1").unwrap(),
            Command::SetTriggerSetEnabled {
                name: "s1".into(),
                enabled: true
            }
        );
    }

    #[test]
    fn define_data_source_variants() {
        let Command::DefineDataSource {
            name,
            columns,
            from_table,
            connection,
        } = parse_command(
            "define data source quotes (symbol varchar(8), price float, volume integer)",
        )
        .unwrap()
        else {
            panic!()
        };
        assert_eq!(name, "quotes");
        assert!(from_table.is_none());
        assert!(connection.is_none());
        let cols = columns.unwrap();
        assert_eq!(cols.len(), 3);
        assert_eq!(cols[0].ty, DataType::Varchar(8));
        assert_eq!(cols[1].ty, DataType::Float);

        let Command::DefineDataSource {
            from_table,
            columns,
            connection,
            ..
        } = parse_command("define data source emp from table emp_table via feed").unwrap()
        else {
            panic!()
        };
        assert_eq!(from_table.as_deref(), Some("emp_table"));
        assert!(columns.is_none());
        assert_eq!(connection.as_deref(), Some("feed"));
    }

    #[test]
    fn define_connection_parses() {
        let Command::DefineConnection(def) = parse_command(
            "define connection wallst type 'informix' host 'db.example.com' \
             server 'quotes1' user 'feed' password 'secret' default",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(def.name, "wallst");
        assert_eq!(def.dbtype, "informix");
        assert_eq!(def.host.as_deref(), Some("db.example.com"));
        assert_eq!(def.server.as_deref(), Some("quotes1"));
        assert_eq!(def.user.as_deref(), Some("feed"));
        assert_eq!(def.password.as_deref(), Some("secret"));
        assert!(def.is_default);
        // Minimal form.
        let Command::DefineConnection(def) = parse_command("define connection c2").unwrap() else {
            panic!()
        };
        assert_eq!(def.dbtype, "local");
        assert!(!def.is_default);
    }

    #[test]
    fn group_by_having_parse() {
        let Command::CreateTrigger(t) = parse_command(
            "create trigger agg from sales group by sales.region \
             having sales.total > 100 do notify 'big'",
        )
        .unwrap() else {
            panic!()
        };
        assert_eq!(t.group_by.len(), 1);
        assert!(t.having.is_some());
    }

    #[test]
    fn expression_precedence() {
        let e = parse_expression("a.x = 1 or b.y = 2 and not c.z > 3").unwrap();
        // or( a.x=1, and( b.y=2, not(c.z>3) ) )
        let Expr::Binary {
            op: BinaryOp::Or,
            right,
            ..
        } = e
        else {
            panic!()
        };
        let Expr::Binary {
            op: BinaryOp::And,
            right,
            ..
        } = *right
        else {
            panic!()
        };
        assert!(matches!(
            *right,
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));

        let e = parse_expression("1 + 2 * 3").unwrap();
        let Expr::Binary {
            op: BinaryOp::Add,
            right,
            ..
        } = e
        else {
            panic!()
        };
        assert!(matches!(
            *right,
            Expr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn between_desugars() {
        let e = parse_expression("t.x between 5 and 10").unwrap();
        let Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } = e
        else {
            panic!()
        };
        assert!(matches!(
            *left,
            Expr::Binary {
                op: BinaryOp::Ge,
                ..
            }
        ));
        assert!(matches!(
            *right,
            Expr::Binary {
                op: BinaryOp::Le,
                ..
            }
        ));
    }

    #[test]
    fn is_null_and_like() {
        let e = parse_expression("t.name is not null and t.name like 'Ir%'").unwrap();
        let Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } = e
        else {
            panic!()
        };
        assert!(matches!(
            *left,
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
        assert!(matches!(
            *right,
            Expr::Binary {
                op: BinaryOp::Like,
                ..
            }
        ));
    }

    #[test]
    fn sql_statements_parse() {
        assert!(matches!(
            parse_sql("create table emp (name varchar(32), salary float)").unwrap(),
            SqlStmt::CreateTable { .. }
        ));
        assert!(matches!(
            parse_sql("create index emp_sal on emp (salary)").unwrap(),
            SqlStmt::CreateIndex { .. }
        ));
        assert!(matches!(
            parse_sql("insert into emp values ('Bob', 80000.0)").unwrap(),
            SqlStmt::Insert { .. }
        ));
        assert!(matches!(
            parse_sql("select * from emp where salary > 50000;").unwrap(),
            SqlStmt::Select {
                cols: SelectCols::Star,
                ..
            }
        ));
        assert!(matches!(
            parse_sql("delete from emp where name = 'Bob'").unwrap(),
            SqlStmt::Delete { .. }
        ));
        assert!(matches!(
            parse_sql("drop table emp").unwrap(),
            SqlStmt::DropTable(_)
        ));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_command("create widget w").is_err());
        assert!(parse_command("create trigger t from emp").is_err()); // no do
        assert!(parse_expression("1 +").is_err());
        assert!(parse_expression("(1 + 2").is_err());
        assert!(parse_sql("select from").is_err());
        assert!(parse_command("create trigger t from emp do notify 'x' extra").is_err());
    }

    #[test]
    fn update_event_mixed_sources_rejected() {
        assert!(
            parse_command("create trigger t from a, b on update(a.x, b.y) do notify 'x'").is_err()
        );
    }

    #[test]
    fn show_stats_with_and_without_subsystem() {
        assert_eq!(
            parse_command("show stats").unwrap(),
            Command::ShowStats { subsystem: None }
        );
        assert_eq!(
            parse_command("SHOW STATS cache").unwrap(),
            Command::ShowStats {
                subsystem: Some("cache".into())
            }
        );
        assert!(parse_command("show").is_err());
        assert!(parse_command("show stats cache extra").is_err());
    }

    #[test]
    fn trace_commands() {
        assert_eq!(
            parse_command("trace last 5").unwrap(),
            Command::TraceLast { n: 5 }
        );
        assert_eq!(
            parse_command("TRACE TOKEN 17").unwrap(),
            Command::TraceToken { id: 17 }
        );
        assert!(parse_command("trace").is_err());
        assert!(parse_command("trace last").is_err());
        assert!(parse_command("trace last 0").is_err());
        assert!(parse_command("trace token -1").is_err());
        assert!(parse_command("trace token 1 extra").is_err());
    }

    #[test]
    fn windowed_threshold_parses() {
        // Pure window: no predicate, every source event counts.
        let Command::CreateTrigger(t) = parse_command(
            "create trigger burst from q when count >= 3 within 10 seconds \
             do raise event Burst(q.sym)",
        )
        .unwrap() else {
            panic!()
        };
        assert!(t.when.is_none());
        let w = t.window.unwrap();
        assert_eq!(w.count, 3);
        assert_eq!(w.within_ns, 10_000_000_000);

        // Filtered window: predicate first, then the count clause.
        let Command::CreateTrigger(t) = parse_command(
            "create trigger spike from q when q.price > 100 count >= 5 within 2 minutes \
             do notify 'spike'",
        )
        .unwrap() else {
            panic!()
        };
        assert!(t.when.is_some());
        let w = t.window.unwrap();
        assert_eq!(w.count, 5);
        assert_eq!(w.within_ns, 120_000_000_000);

        // Unit coverage.
        for (unit, ns) in [
            ("ms", 1_000_000u64),
            ("s", 1_000_000_000),
            ("sec", 1_000_000_000),
            ("minutes", 60_000_000_000),
            ("hours", 3_600_000_000_000),
        ] {
            let Command::CreateTrigger(t) = parse_command(&format!(
                "create trigger u from q when count >= 1 within 7 {unit} do notify 'x'"
            ))
            .unwrap() else {
                panic!()
            };
            assert_eq!(t.window.unwrap().within_ns, 7 * ns, "unit {unit}");
        }
    }

    #[test]
    fn windowed_threshold_errors() {
        // count < 1, bad duration, unknown unit, wrong operator.
        assert!(
            parse_command("create trigger t from q when count >= 0 within 1 s do notify 'x'")
                .is_err()
        );
        assert!(
            parse_command("create trigger t from q when count >= 2 within 0 s do notify 'x'")
                .is_err()
        );
        assert!(parse_command(
            "create trigger t from q when count >= 2 within 5 fortnights do notify 'x'"
        )
        .is_err());
        // `count = 5` is NOT the window form: it parses as a column
        // comparison on a column named count (and then fails resolution
        // later if absent — but the parse succeeds).
        let Command::CreateTrigger(t) =
            parse_command("create trigger t from q when count = 5 do notify 'x'").unwrap()
        else {
            panic!()
        };
        assert!(t.window.is_none());
        assert!(t.when.is_some());
    }

    #[test]
    fn transition_refs_in_expressions() {
        let e = parse_expression(":OLD.emp.salary + 10").unwrap();
        let Expr::Binary { left, .. } = e else {
            panic!()
        };
        assert_eq!(
            *left,
            Expr::Transition {
                new: false,
                source: "emp".into(),
                column: "salary".into()
            }
        );
    }
}
