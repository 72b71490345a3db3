/**
 * @file
 * Plain-text table printer for benchmark output.
 *
 * Every figure-reproduction binary prints its series through this so
 * the rows line up with the paper's tables/plots and are trivially
 * grep-able / plottable.
 */

#ifndef IOAT_SIMCORE_TABLE_HH
#define IOAT_SIMCORE_TABLE_HH

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

namespace ioat::sim {

/** printf-style formatting into a std::string. */
#ifdef __GNUC__
__attribute__((format(printf, 1, 2)))
#endif
inline std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    char buf[512];
    vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

/**
 * A fixed-column table that sizes columns from contents.
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header)
        : header_(std::move(header))
    {}

    void
    addRow(std::vector<std::string> row)
    {
        rows_.push_back(std::move(row));
    }

    void
    print(std::ostream &os) const
    {
        std::vector<std::size_t> widths(header_.size());
        for (std::size_t i = 0; i < header_.size(); ++i)
            widths[i] = header_[i].size();
        for (const auto &row : rows_)
            for (std::size_t i = 0; i < row.size() && i < widths.size(); ++i)
                widths[i] = std::max(widths[i], row[i].size());

        printRow(os, header_, widths);
        std::size_t total = 0;
        for (auto w : widths)
            total += w + 2;
        os << std::string(total, '-') << '\n';
        for (const auto &row : rows_)
            printRow(os, row, widths);
    }

  private:
    static void
    printRow(std::ostream &os, const std::vector<std::string> &row,
             const std::vector<std::size_t> &widths)
    {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << row[i];
            if (i + 1 < row.size()) {
                const std::size_t pad =
                    (i < widths.size() ? widths[i] : row[i].size()) -
                    row[i].size() + 2;
                os << std::string(pad, ' ');
            }
        }
        os << '\n';
    }

    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_TABLE_HH
