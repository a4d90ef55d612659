#include "util/date.h"

#include <cstdio>
#include <limits>

namespace recycledb {

namespace {

// Howard Hinnant's civil-days algorithms (public domain).
int64_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);            // [0, 399]
  const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;           // [0, 146096]
  return era * 146097 + static_cast<int64_t>(doe) - 719468;
}

void CivilFromDays(int64_t z, int* yy, int* mm, int* dd) {
  z += 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);           // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t y = static_cast<int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);           // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                                // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;                        // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                             // [1, 12]
  *yy = static_cast<int>(y + (m <= 2));
  *mm = static_cast<int>(m);
  *dd = static_cast<int>(d);
}

bool IsLeap(int y) { return (y % 4 == 0 && y % 100 != 0) || y % 400 == 0; }

int DaysInMonth(int y, int m) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (m == 2 && IsLeap(y)) return 29;
  return kDays[m - 1];
}

}  // namespace

DateT DateFromYmd(int year, int month, int day) {
  return static_cast<DateT>(DaysFromCivil(year, month, day));
}

void YmdFromDate(DateT date, int* year, int* month, int* day) {
  CivilFromDays(date, year, month, day);
}

DateT AddMonths(DateT date, int months) {
  int y, m, d;
  YmdFromDate(date, &y, &m, &d);
  int total = (y * 12 + (m - 1)) + months;
  int ny = total / 12;
  int nm = total % 12;
  if (nm < 0) {
    nm += 12;
    ny -= 1;
  }
  nm += 1;
  int nd = d;
  int dim = DaysInMonth(ny, nm);
  if (nd > dim) nd = dim;
  return DateFromYmd(ny, nm, nd);
}

std::string DateToString(DateT date) {
  int y, m, d;
  YmdFromDate(date, &y, &m, &d);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

DateT DateFromString(std::string_view s) {
  constexpr DateT kBad = std::numeric_limits<int32_t>::min();
  // Exactly YYYY-MM-DD: four year digits, two month digits, two day digits.
  if (s.size() != 10 || s[4] != '-' || s[7] != '-') return kBad;
  auto digits = [&s](size_t from, size_t count, int* out) {
    int v = 0;
    for (size_t k = from; k < from + count; ++k) {
      if (s[k] < '0' || s[k] > '9') return false;
      v = v * 10 + (s[k] - '0');
    }
    *out = v;
    return true;
  };
  int y, m, d;
  if (!digits(0, 4, &y) || !digits(5, 2, &m) || !digits(8, 2, &d))
    return kBad;
  if (m < 1 || m > 12 || d < 1 || d > DaysInMonth(y, m)) return kBad;
  return DateFromYmd(y, m, d);
}

}  // namespace recycledb
