#ifndef RECYCLEDB_UTIL_DATE_H_
#define RECYCLEDB_UTIL_DATE_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace recycledb {

/// Dates are stored as int32 days since 1970-01-01 (proleptic Gregorian).
/// This mirrors MonetDB's `date` base type closely enough for the TPC-H and
/// SkyServer workloads (date arithmetic, month addition, range predicates).
using DateT = int32_t;

/// Converts a calendar date to days-since-epoch. Valid for years 1600-9999.
DateT DateFromYmd(int year, int month, int day);

/// Splits days-since-epoch into (year, month, day).
void YmdFromDate(DateT date, int* year, int* month, int* day);

/// SQL `date + interval 'n' month`: clamps the day-of-month as SQL does.
DateT AddMonths(DateT date, int months);

/// SQL `date + interval 'n' day`.
inline DateT AddDays(DateT date, int days) { return date + days; }

/// Formats as YYYY-MM-DD.
std::string DateToString(DateT date);

/// Parses exactly YYYY-MM-DD (four, two and two digits, with a valid month
/// and day of month); returns INT32_MIN on anything else.
DateT DateFromString(std::string_view s);

}  // namespace recycledb

#endif  // RECYCLEDB_UTIL_DATE_H_
