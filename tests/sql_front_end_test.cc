// SQL front end under respelling and byte mutation. Seeded and bounded:
//  - a statement re-cased, re-spaced, commented and terminated differently
//    parses to the same Fingerprint and binds the same literal values;
//  - byte-mutated statements never crash the lexer, parser, Fingerprint or
//    BindLiterals, and every rejection is a positioned InvalidArgument or
//    NotImplemented.

#include <gtest/gtest.h>

#include <cctype>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench/sql_patterns.h"
#include "sql/parser.h"
#include "sql/planner.h"
#include "util/rng.h"

namespace recycledb {
namespace {

/// The six rdbbench patterns plus the SELECT statements sql_test runs.
std::vector<std::string> Corpus() {
  std::vector<std::string> out(std::begin(bench::kRdbbenchPatterns),
                               std::end(bench::kRdbbenchPatterns));
  for (const char* s : {
           "select e_name, e_salary from emp where e_salary > 350.0",
           "select e_name from emp where e_dept = 0 and e_age between 26 "
           "and 51",
           "select e_name from emp where e_name like '%o%'",
           "select e_name from emp where e_name not like '%o%'",
           "select count(*) from emp where e_name <> 'ann'",
           "select count(*) from emp where e_name != 'it''s'",
           "select count(*) from emp where 350.0 < e_salary",
           "select count(*) from emp where e_hired >= date '2021-01-01' and "
           "e_hired < date '2022-01-01'",
           "select count(*), sum(e_salary), min(e_age), max(e_age), "
           "avg(e_salary) from emp",
           "select e_dept, count(*), sum(e_salary) from emp group by e_dept",
           "select sum(e_salary * 0.5) from emp where e_dept = 2",
           "select sum(e_salary * (1 - e_salary / 1000)) as adj from emp "
           "where e_dept = 2",
           "select e_salary / 2 as half from emp where e_id = 1",
           "select e_name, d_name from emp inner join dept on e_dept = d_id "
           "where d_name = 'sales'",
           "select d.d_name, count(*) from emp e join dept d on e.e_dept = "
           "d.d_id group by d.d_name",
           "select e_salary from emp order by e_salary limit 2",
           "select d_id, d_name from dept order by d_name desc",
           "select e_dept, sum(e_salary) as total from emp group by e_dept "
           "order by total desc",
           "select * from dept",
           "select e_name from emp where e_age > -3 and e_age <= 40",
           "select sum(e_salary * 0.1) from emp where e_age between 30 and "
           "40 and e_name like 'd%'",
       })
    out.emplace_back(s);
  return out;
}

/// Binding types that every literal of the statement accepts as written,
/// read off the fingerprint's typed placeholders.
std::vector<TypeTag> PlaceholderTypes(const std::string& fp) {
  std::vector<TypeTag> types;
  for (size_t p = fp.find('?'); p != std::string::npos;
       p = fp.find('?', p + 1)) {
    if (fp.compare(p, 4, "?int") == 0)
      types.push_back(TypeTag::kLng);
    else if (fp.compare(p, 4, "?flt") == 0)
      types.push_back(TypeTag::kDbl);
    else if (fp.compare(p, 4, "?str") == 0)
      types.push_back(TypeTag::kStr);
    else
      types.push_back(TypeTag::kDate);
  }
  return types;
}

// Whitespace runs a respelled statement may use; the first
// kPlainSeparators hold no comment.
const char* const kSeparators[] = {" ",    "  ",   "\t",        "\n",
                                   " \r\n ", "\f ", " -- note\n",
                                   "\n-- 'quoted' ; comment\n"};
constexpr size_t kPlainSeparators = 6;

/// Re-spells `text` without changing what it says: letters outside quotes
/// re-cased at random, each whitespace run replaced by other whitespace or
/// a comment (plain whitespace between DATE and its quote, where the lexer
/// allows nothing else), optional spacing around ( ) , * =, and a random
/// leading comment and trailing ';'.
std::string Respell(const std::string& text, Rng* rng) {
  auto sep = [rng](bool plain) {
    return kSeparators[rng->Uniform(plain ? kPlainSeparators
                                          : std::size(kSeparators))];
  };
  std::string out;
  if (rng->Bernoulli(0.3)) out += rng->Bernoulli(0.5) ? "\n  " : "-- lead\n";
  std::string word;  // the identifier being copied, lower-cased
  size_t i = 0;
  while (i < text.size()) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c == '\'') {  // copy the literal verbatim, '' escapes included
      size_t j = i + 1;
      while (j < text.size() &&
             (text[j] != '\'' || (j + 1 < text.size() && text[j + 1] == '\'')))
        j += text[j] == '\'' ? 2 : 1;
      out.append(text, i, j + 1 - i);
      word.clear();
      i = j + 1;
      continue;
    }
    if (std::isspace(c)) {
      size_t j = i;
      while (j < text.size() && std::isspace(static_cast<unsigned char>(text[j])))
        ++j;
      out += sep(word == "date" && j < text.size() && text[j] == '\'');
      word.clear();
      i = j;
      continue;
    }
    const char prev = i > 0 ? text[i - 1] : ' ';
    const bool punct = c == '(' || c == ')' || c == ',' || c == '*' ||
                       (c == '=' && prev != '<' && prev != '>' && prev != '!');
    if (punct && rng->Bernoulli(0.5)) out += sep(false);
    if (std::isalnum(c) || c == '_')
      word += static_cast<char>(std::tolower(c));
    else
      word.clear();
    out += static_cast<char>(
        std::isalpha(c) && rng->Bernoulli(0.5) ? std::toupper(c) : c);
    if (punct && rng->Bernoulli(0.5)) out += sep(false);
    ++i;
  }
  const char* const kEndings[] = {"", ";", " ;\n-- done", "\n"};
  out += kEndings[rng->Uniform(std::size(kEndings))];
  return out;
}

std::vector<std::string> BoundValues(const sql::SelectStmt& stmt) {
  auto bound =
      sql::BindLiterals(stmt, PlaceholderTypes(sql::Fingerprint(stmt)));
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  std::vector<std::string> out;
  if (!bound.ok()) return out;
  for (const Scalar& s : bound.value()) out.push_back(s.ToString());
  return out;
}

TEST(SqlFrontEndTest, RespelledStatementsKeepFingerprintAndLiterals) {
  Rng rng(1301);
  for (const std::string& text : Corpus()) {
    auto base = sql::ParseStatement(text);
    ASSERT_TRUE(base.ok()) << text << ": " << base.status().ToString();
    const std::string fp = sql::Fingerprint(base.value().select);
    const std::vector<std::string> values = BoundValues(base.value().select);
    for (int k = 0; k < 20; ++k) {
      const std::string variant = Respell(text, &rng);
      auto st = sql::ParseStatement(variant);
      ASSERT_TRUE(st.ok()) << variant << ": " << st.status().ToString();
      ASSERT_EQ(st.value().kind, sql::Statement::Kind::kSelect) << variant;
      EXPECT_EQ(sql::Fingerprint(st.value().select), fp) << variant;
      EXPECT_EQ(BoundValues(st.value().select), values) << variant;
    }
  }
}

/// True when `msg` holds a "line:column" position.
bool HasLineCol(const std::string& msg) {
  for (size_t c = msg.find(':'); c != std::string::npos;
       c = msg.find(':', c + 1)) {
    if (c > 0 && c + 1 < msg.size() &&
        std::isdigit(static_cast<unsigned char>(msg[c - 1])) &&
        std::isdigit(static_cast<unsigned char>(msg[c + 1])))
      return true;
  }
  return false;
}

// Rejections of a whole construct name the token where it starts, like
// every other parse error.
TEST(SqlFrontEndTest, ClauseLevelRejectionsCarryTheirPosition) {
  const std::pair<const char*, const char*> cases[] = {
      {"select count(*) from lineitem, orders",
       "comma-separated FROM lists are not supported at 1:30; use INNER JOIN "
       "... ON over a registered foreign-key index"},
      {"select l_tax from lineitem order by lineitem.l_tax",
       "ORDER BY takes an unqualified select-item label, not "
       "'lineitem.l_tax' at 1:37"},
      {"select count(*) from lineitem left join orders on l_orderkey = "
       "o_orderkey",
       "only INNER JOIN is supported (got 'left' at 1:31)"},
      {"update region set r_name = count(*)",
       "SET expressions are column/literal arithmetic only (at 1:28)"},
      {"select count(*) from lineitem where 5 < 6",
       "predicates must compare a column against a literal (got 6 at 1:41)"},
      {"select count(*) from lineitem\nwhere l_tax < l_discount",
       "column-to-column predicates are not supported at 2:15 (joins go "
       "through INNER JOIN ... ON)"},
  };
  for (const auto& [text, message] : cases) {
    auto st = sql::ParseStatement(text);
    ASSERT_FALSE(st.ok()) << text;
    EXPECT_EQ(st.status().message(), message) << text;
  }
}

TEST(SqlFrontEndTest, MutatedStatementsFailCleanly) {
  const std::vector<std::string> corpus = Corpus();
  const std::string alphabet = " \n\t'-;(),.*+/=<>!_09azAZdD\x80\xff";
  Rng rng(1302);
  int rejected = 0, accepted = 0;
  for (int m = 0; m < 20000; ++m) {
    std::string text = corpus[rng.Uniform(corpus.size())];
    const int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.Uniform(text.size() + 1);
      const char c = rng.Bernoulli(0.05)
                         ? '\0'
                         : alphabet[rng.Uniform(alphabet.size())];
      switch (rng.Uniform(4)) {
        case 0:  // overwrite
          if (pos < text.size()) text[pos] = c;
          break;
        case 1:  // insert
          text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos), c);
          break;
        case 2:  // delete one byte
          if (pos < text.size()) text.erase(pos, 1);
          break;
        default:  // truncate or cut a run
          if (pos < text.size()) text.erase(pos, rng.Uniform(8));
          break;
      }
    }
    auto st = sql::ParseStatement(text);
    if (st.ok()) {
      ++accepted;
      if (st.value().kind == sql::Statement::Kind::kSelect)
        BoundValues(st.value().select);
      continue;
    }
    ++rejected;
    const Status& s = st.status();
    ASSERT_TRUE(s.code() == StatusCode::kInvalidArgument ||
                s.code() == StatusCode::kNotImplemented)
        << text << ": " << s.ToString();
    ASSERT_TRUE(HasLineCol(s.message())) << text << ": " << s.ToString();
  }
  // Both outcomes occur, so the mutations neither always break nor never
  // touch the statements.
  EXPECT_GT(rejected, 1000);
  EXPECT_GT(accepted, 1000);
}

}  // namespace
}  // namespace recycledb
