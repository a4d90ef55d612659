#include "sql/parser.h"

#include <utility>

#include "sql/lexer.h"
#include "util/str.h"

namespace recycledb::sql {

std::string Literal::ToString() const {
  switch (kind) {
    case Kind::kInt:
      return StrFormat("%lld", static_cast<long long>(i));
    case Kind::kFloat:
      return StrFormat("%g", f);
    case Kind::kString:
      return "'" + s + "'";
    case Kind::kDate:
      return "date '" + DateToString(d) + "'";
  }
  return "?";
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "<>";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

bool IsLiteralTok(Tok k) {
  return k == Tok::kInt || k == Tok::kFloat || k == Tok::kString ||
         k == Tok::kDate || k == Tok::kMinus;
}

bool IsAggTok(Tok k) {
  return k == Tok::kCount || k == Tok::kSum || k == Tok::kMin ||
         k == Tok::kMax || k == Tok::kAvg;
}

/// Recursive-descent parser over one statement's tokens. Every clause
/// parses into the node its caller already placed in the AST (no node is
/// built aside and moved in), and identifier and string text moves out of
/// the tokens it consumes. On an error the half-built statement is
/// discarded by the caller.
class Parser {
 public:
  Parser(std::vector<Token> toks, const std::string& text)
      : toks_(std::move(toks)), text_(text) {}

  Status ParseAny(Statement* stmt) {
    switch (Cur().kind) {
      case Tok::kInsert:
        stmt->kind = Statement::Kind::kInsert;
        return ParseInsert(&stmt->insert);
      case Tok::kDelete:
        stmt->kind = Statement::Kind::kDelete;
        return ParseDelete(&stmt->del);
      case Tok::kUpdate:
        stmt->kind = Statement::Kind::kUpdate;
        return ParseUpdate(&stmt->update);
      case Tok::kBegin:
        return ParseKeywordOnly(Statement::Kind::kBegin, stmt);
      case Tok::kCommit:
        return ParseKeywordOnly(Statement::Kind::kCommit, stmt);
      case Tok::kRollback:
        return ParseKeywordOnly(Statement::Kind::kRollback, stmt);
      case Tok::kTrace:
        // TRACE prefixes a SELECT only: DML runs under the exclusive update
        // lock where the per-instruction recycler hook never fires.
        Advance();
        if (Cur().kind != Tok::kSelect)
          return Error("SELECT after TRACE (only SELECT can be traced)");
        stmt->kind = Statement::Kind::kSelect;
        stmt->traced = true;
        return Parse(&stmt->select);
      default:
        stmt->kind = Statement::Kind::kSelect;
        return Parse(&stmt->select);
    }
  }

  Status Parse(SelectStmt* stmt) {
    RDB_RETURN_NOT_OK(Expect(Tok::kSelect, "SELECT"));

    // select list
    stmt->items.reserve(1 + CountAhead(Tok::kComma, Tok::kFrom));
    while (true) {
      SelectItem& item = stmt->items.emplace_back();
      if (Cur().kind == Tok::kStar) {
        Advance();
        item.expr = std::make_unique<Expr>();
        item.expr->kind = Expr::Kind::kStar;
      } else {
        RDB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (Accept(Tok::kAs)) {
          if (Cur().kind != Tok::kIdent) return Error("alias after AS");
          item.alias = TakeText();
        } else if (Cur().kind == Tok::kIdent) {
          item.alias = TakeText();
        }
      }
      if (!Accept(Tok::kComma)) break;
    }

    // FROM table [alias] (INNER? JOIN table [alias] ON a = b)*
    RDB_RETURN_NOT_OK(Expect(Tok::kFrom, "FROM"));
    RDB_RETURN_NOT_OK(ParseTableRef(&stmt->table, &stmt->alias));
    stmt->joins.reserve(CountAhead(Tok::kJoin, Tok::kWhere));
    while (Cur().kind == Tok::kInner || Cur().kind == Tok::kJoin) {
      bool had_inner = Accept(Tok::kInner);
      if (had_inner && Cur().kind != Tok::kJoin) return Error("JOIN");
      RDB_RETURN_NOT_OK(Expect(Tok::kJoin, "JOIN"));
      JoinClause& j = stmt->joins.emplace_back();
      RDB_RETURN_NOT_OK(ParseTableRef(&j.table, &j.alias));
      RDB_RETURN_NOT_OK(Expect(Tok::kOn, "ON"));
      RDB_RETURN_NOT_OK(ParseColumnRef(&j.left));
      RDB_RETURN_NOT_OK(Expect(Tok::kEq, "'=' in join condition"));
      RDB_RETURN_NOT_OK(ParseColumnRef(&j.right));
    }
    if (Cur().kind == Tok::kComma)
      return Status::NotImplemented(
          "comma-separated FROM lists are not supported at " + Where() +
          "; use INNER JOIN ... ON over a registered foreign-key index");

    RDB_RETURN_NOT_OK(ParseWhere(&stmt->where));

    // GROUP BY
    if (Accept(Tok::kGroup)) {
      RDB_RETURN_NOT_OK(Expect(Tok::kBy, "BY after GROUP"));
      stmt->group_by.reserve(1 + CountAhead(Tok::kComma, Tok::kOrder));
      while (true) {
        RDB_RETURN_NOT_OK(ParseColumnRef(&stmt->group_by.emplace_back()));
        if (!Accept(Tok::kComma)) break;
      }
    }

    // ORDER BY
    if (Accept(Tok::kOrder)) {
      RDB_RETURN_NOT_OK(Expect(Tok::kBy, "BY after ORDER"));
      const size_t label_pos = Cur().pos;
      ColumnRef c;
      RDB_RETURN_NOT_OK(ParseColumnRef(&c));
      if (!c.table.empty())
        return Status::InvalidArgument(
            "ORDER BY takes an unqualified select-item label, not '" +
            c.ToString() + "' at " + LineColAt(text_, label_pos));
      stmt->order_by.present = true;
      stmt->order_by.name = std::move(c.column);  // matched against labels
      if (Accept(Tok::kDesc))
        stmt->order_by.asc = false;
      else
        Accept(Tok::kAsc);
    }

    // LIMIT
    if (Accept(Tok::kLimit)) {
      if (Cur().kind != Tok::kInt) return Error("integer after LIMIT");
      stmt->limit = Cur().ival;
      Advance();
    }

    if (Cur().kind != Tok::kEof) return Error("end of statement");
    return Status::OK();
  }

 private:
  const Token& Cur() const { return toks_[p_]; }
  void Advance() {
    if (p_ + 1 < toks_.size()) ++p_;
  }
  bool Accept(Tok k) {
    if (Cur().kind != k) return false;
    Advance();
    return true;
  }
  Status Expect(Tok k, const char* what) {
    if (Cur().kind != k) return Error(what);
    Advance();
    return Status::OK();
  }
  /// Moves the text out of the current (identifier or string) token, which
  /// is consumed: no error message reports a token behind the cursor.
  std::string TakeText() {
    std::string text = std::move(toks_[p_].text);
    Advance();
    return text;
  }
  /// The number of `k` tokens from the cursor up to the first `stop` token
  /// or the end of input. An upper bound on list lengths, for reserving
  /// AST vectors before the list is parsed.
  size_t CountAhead(Tok k, Tok stop) const {
    size_t count = 0;
    for (size_t i = p_; toks_[i].kind != stop && toks_[i].kind != Tok::kEof;
         ++i)
      count += toks_[i].kind == k;
    return count;
  }
  /// "line:column" of the current token.
  std::string Where() const { return LineColAt(text_, Cur().pos); }
  Status Error(const char* what) const {
    return Status::InvalidArgument(
        StrFormat("parse error at %s: expected %s, got %s",
                  Where().c_str(), what,
                  TokenToString(Cur()).c_str()));
  }

  // BEGIN, COMMIT, ROLLBACK: the keyword alone.
  Status ParseKeywordOnly(Statement::Kind kind, Statement* stmt) {
    Advance();
    if (Cur().kind != Tok::kEof) return Error("end of statement");
    stmt->kind = kind;
    return Status::OK();
  }

  // INSERT INTO t [(col, ...)] VALUES (lit, ...) [, (lit, ...)]*
  Status ParseInsert(InsertStmt* stmt) {
    RDB_RETURN_NOT_OK(Expect(Tok::kInsert, "INSERT"));
    RDB_RETURN_NOT_OK(Expect(Tok::kInto, "INTO after INSERT"));
    if (Cur().kind != Tok::kIdent) return Error("table name");
    stmt->table = TakeText();
    if (Accept(Tok::kLParen)) {
      while (true) {
        if (Cur().kind != Tok::kIdent) return Error("column name");
        stmt->columns.push_back(TakeText());
        if (!Accept(Tok::kComma)) break;
      }
      RDB_RETURN_NOT_OK(Expect(Tok::kRParen, "')' after column list"));
    }
    RDB_RETURN_NOT_OK(Expect(Tok::kValues, "VALUES"));
    while (true) {
      RDB_RETURN_NOT_OK(Expect(Tok::kLParen, "'(' before a VALUES row"));
      std::vector<Literal>& row = stmt->rows.emplace_back();
      while (true) {
        RDB_RETURN_NOT_OK(ParseLiteral(&row.emplace_back()));
        if (!Accept(Tok::kComma)) break;
      }
      RDB_RETURN_NOT_OK(Expect(Tok::kRParen, "')' after a VALUES row"));
      if (!Accept(Tok::kComma)) break;
    }
    if (Cur().kind != Tok::kEof) return Error("end of statement");
    return Status::OK();
  }

  // DELETE FROM t [alias] [WHERE conjunct (AND conjunct)*]
  Status ParseDelete(DeleteStmt* stmt) {
    RDB_RETURN_NOT_OK(Expect(Tok::kDelete, "DELETE"));
    RDB_RETURN_NOT_OK(Expect(Tok::kFrom, "FROM after DELETE"));
    RDB_RETURN_NOT_OK(ParseTableRef(&stmt->table, &stmt->alias));
    RDB_RETURN_NOT_OK(ParseWhere(&stmt->where));
    if (Cur().kind != Tok::kEof) return Error("end of statement");
    return Status::OK();
  }

  // UPDATE t [alias] SET col = expr (, col = expr)* [WHERE ...]
  Status ParseUpdate(UpdateStmt* stmt) {
    RDB_RETURN_NOT_OK(Expect(Tok::kUpdate, "UPDATE"));
    RDB_RETURN_NOT_OK(ParseTableRef(&stmt->table, &stmt->alias));
    RDB_RETURN_NOT_OK(Expect(Tok::kSet, "SET after UPDATE table"));
    while (true) {
      if (Cur().kind != Tok::kIdent) return Error("column name in SET");
      UpdateStmt::SetClause& sc = stmt->sets.emplace_back();
      sc.column = TakeText();
      RDB_RETURN_NOT_OK(Expect(Tok::kEq, "'=' in SET clause"));
      const size_t value_pos = Cur().pos;
      RDB_ASSIGN_OR_RETURN(sc.value, ParseExpr());
      if (sc.value->kind == Expr::Kind::kAggregate ||
          sc.value->kind == Expr::Kind::kStar)
        return Status::NotImplemented(
            "SET expressions are column/literal arithmetic only (at " +
            LineColAt(text_, value_pos) + ")");
      if (!Accept(Tok::kComma)) break;
    }
    RDB_RETURN_NOT_OK(ParseWhere(&stmt->where));
    if (Cur().kind != Tok::kEof) return Error("end of statement");
    return Status::OK();
  }

  // [WHERE conjunct (AND conjunct)*]
  Status ParseWhere(std::vector<Predicate>* where) {
    if (!Accept(Tok::kWhere)) return Status::OK();
    // Every AND before GROUP BY is a conjunct separator or the AND of a
    // BETWEEN, so this bounds the conjunct count from above.
    where->reserve(1 + CountAhead(Tok::kAnd, Tok::kGroup));
    while (true) {
      RDB_RETURN_NOT_OK(ParsePredicate(&where->emplace_back()));
      if (!Accept(Tok::kAnd)) return Status::OK();
    }
  }

  /// SQL's join modifiers are not lexer keywords; left unreserved they
  /// would be consumed as implicit table aliases and silently turn e.g.
  /// LEFT JOIN into an INNER JOIN.
  static bool IsJoinModifier(const std::string& w) {
    return w == "left" || w == "right" || w == "full" || w == "outer" ||
           w == "cross" || w == "natural";
  }

  Status ParseTableRef(std::string* table, std::string* alias) {
    if (Cur().kind != Tok::kIdent) return Error("table name");
    *table = TakeText();
    if (Accept(Tok::kAs)) {
      if (Cur().kind != Tok::kIdent) return Error("alias after AS");
      *alias = TakeText();
    } else if (Cur().kind == Tok::kIdent) {
      if (IsJoinModifier(Cur().text))
        return Status::NotImplemented("only INNER JOIN is supported (got '" +
                                      Cur().text + "' at " + Where() + ")");
      *alias = TakeText();
    }
    return Status::OK();
  }

  Status ParseColumnRef(ColumnRef* c) {
    if (Cur().kind != Tok::kIdent) return Error("column name");
    c->column = TakeText();
    if (Accept(Tok::kDot)) {
      if (Cur().kind != Tok::kIdent) return Error("column after '.'");
      c->table = std::move(c->column);
      c->column = TakeText();
    }
    return Status::OK();
  }

  Status ParseLiteral(Literal* lit) {
    bool neg = Accept(Tok::kMinus);
    switch (Cur().kind) {
      case Tok::kInt:
        lit->kind = Literal::Kind::kInt;
        lit->i = neg ? -Cur().ival : Cur().ival;
        break;
      case Tok::kFloat:
        lit->kind = Literal::Kind::kFloat;
        lit->f = neg ? -Cur().fval : Cur().fval;
        break;
      case Tok::kString:
        if (neg) return Error("numeric literal after '-'");
        lit->kind = Literal::Kind::kString;
        lit->s = TakeText();
        return Status::OK();
      case Tok::kDate:
        if (neg) return Error("numeric literal after '-'");
        lit->kind = Literal::Kind::kDate;
        lit->d = Cur().dval;
        break;
      default:
        return Error("literal");
    }
    Advance();
    return Status::OK();
  }

  static std::unique_ptr<Expr> Arith(ArithOp op, std::unique_ptr<Expr> lhs,
                                     std::unique_ptr<Expr> rhs) {
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kArith;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  // expr := term (('+'|'-') term)*
  Result<std::unique_ptr<Expr>> ParseExpr() {
    RDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseTerm());
    while (Cur().kind == Tok::kPlus || Cur().kind == Tok::kMinus) {
      ArithOp op =
          Cur().kind == Tok::kPlus ? ArithOp::kAdd : ArithOp::kSub;
      Advance();
      RDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseTerm());
      lhs = Arith(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  // term := primary (('*'|'/') primary)*
  Result<std::unique_ptr<Expr>> ParseTerm() {
    RDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParsePrimary());
    while (Cur().kind == Tok::kStar || Cur().kind == Tok::kSlash) {
      ArithOp op =
          Cur().kind == Tok::kStar ? ArithOp::kMul : ArithOp::kDiv;
      Advance();
      RDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParsePrimary());
      lhs = Arith(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    if (IsAggTok(Cur().kind)) {
      AggFunc f;
      switch (Cur().kind) {
        case Tok::kCount:
          f = AggFunc::kCount;
          break;
        case Tok::kSum:
          f = AggFunc::kSum;
          break;
        case Tok::kMin:
          f = AggFunc::kMin;
          break;
        case Tok::kMax:
          f = AggFunc::kMax;
          break;
        default:
          f = AggFunc::kAvg;
          break;
      }
      Advance();
      RDB_RETURN_NOT_OK(Expect(Tok::kLParen, "'(' after aggregate"));
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kAggregate;
      node->agg = f;
      if (Cur().kind == Tok::kStar) {
        if (f != AggFunc::kCount) return Error("expression (only COUNT(*))");
        Advance();
      } else {
        RDB_ASSIGN_OR_RETURN(node->arg, ParseExpr());
      }
      RDB_RETURN_NOT_OK(Expect(Tok::kRParen, "')' after aggregate"));
      return node;
    }
    if (IsLiteralTok(Cur().kind)) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kLiteral;
      RDB_RETURN_NOT_OK(ParseLiteral(&node->lit));
      return node;
    }
    if (Cur().kind == Tok::kIdent) {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kColumn;
      RDB_RETURN_NOT_OK(ParseColumnRef(&node->col));
      return node;
    }
    if (Accept(Tok::kLParen)) {
      RDB_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
      RDB_RETURN_NOT_OK(Expect(Tok::kRParen, "')'"));
      return e;
    }
    return Error("expression");
  }

  Result<CmpOp> ParseCmpOp() {
    switch (Cur().kind) {
      case Tok::kEq:
        Advance();
        return CmpOp::kEq;
      case Tok::kNe:
        Advance();
        return CmpOp::kNe;
      case Tok::kLt:
        Advance();
        return CmpOp::kLt;
      case Tok::kLe:
        Advance();
        return CmpOp::kLe;
      case Tok::kGt:
        Advance();
        return CmpOp::kGt;
      case Tok::kGe:
        Advance();
        return CmpOp::kGe;
      default:
        return Error("comparison operator");
    }
  }

  static CmpOp FlipCmp(CmpOp op) {
    switch (op) {
      case CmpOp::kLt:
        return CmpOp::kGt;
      case CmpOp::kLe:
        return CmpOp::kGe;
      case CmpOp::kGt:
        return CmpOp::kLt;
      case CmpOp::kGe:
        return CmpOp::kLe;
      default:
        return op;  // = and <> are symmetric
    }
  }

  Status ParsePredicate(Predicate* p) {
    if (IsLiteralTok(Cur().kind)) {
      // literal CMP column: normalise to column-on-the-left.
      RDB_RETURN_NOT_OK(ParseLiteral(&p->value));
      RDB_ASSIGN_OR_RETURN(CmpOp op, ParseCmpOp());
      if (Cur().kind != Tok::kIdent)
        return Status::NotImplemented(
            "predicates must compare a column against a literal (got " +
            TokenToString(Cur()) + " at " + Where() + ")");
      RDB_RETURN_NOT_OK(ParseColumnRef(&p->col));
      p->kind = Predicate::Kind::kCompare;
      p->op = FlipCmp(op);
      return Status::OK();
    }
    RDB_RETURN_NOT_OK(ParseColumnRef(&p->col));
    if (Accept(Tok::kBetween)) {
      p->kind = Predicate::Kind::kBetween;
      RDB_RETURN_NOT_OK(ParseLiteral(&p->lo));
      RDB_RETURN_NOT_OK(Expect(Tok::kAnd, "AND in BETWEEN"));
      return ParseLiteral(&p->hi);
    }
    bool neg = Accept(Tok::kNot);
    if (Accept(Tok::kLike)) {
      p->kind = neg ? Predicate::Kind::kNotLike : Predicate::Kind::kLike;
      return ParseLiteral(&p->value);
    }
    if (neg) return Error("LIKE after NOT");
    RDB_ASSIGN_OR_RETURN(p->op, ParseCmpOp());
    if (Cur().kind == Tok::kIdent)
      return Status::NotImplemented(
          "column-to-column predicates are not supported at " + Where() +
          " (joins go through INNER JOIN ... ON)");
    p->kind = Predicate::Kind::kCompare;
    return ParseLiteral(&p->value);
  }

  std::vector<Token> toks_;
  const std::string& text_;
  size_t p_ = 0;
};

}  // namespace

Result<Statement> ParseStatement(const std::string& text) {
  RDB_ASSIGN_OR_RETURN(std::vector<Token> toks, Lex(text));
  Parser parser(std::move(toks), text);
  Result<Statement> out = Statement();
  RDB_RETURN_NOT_OK(parser.ParseAny(&out.value()));
  return out;
}

Result<SelectStmt> ParseSelect(const std::string& text) {
  RDB_ASSIGN_OR_RETURN(std::vector<Token> toks, Lex(text));
  Parser parser(std::move(toks), text);
  Result<SelectStmt> out = SelectStmt();
  RDB_RETURN_NOT_OK(parser.Parse(&out.value()));
  return out;
}

}  // namespace recycledb::sql
