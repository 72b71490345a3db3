// Fixture: text inside string literals must never produce findings.
// A naive stripper loses quote-state inside raw strings with embedded
// quotes and "leaks" the literal text below into code, producing
// phantom iteration findings; cxxlex.strip_code must not.
#include <cstdint>
#include <string>

inline std::string helpText() {
    // Raw string with embedded quotes and code-looking text.
    return R"txt(usage: do not write "for (auto &kv : unordered_ids)";
iterate a sorted snapshot instead, e.g. "for (auto &kv : sorted(ids))".)txt";
}

inline std::string regexText() {
    // Delimited raw string: the )" inside must not terminate it.
    return R"re(match ")" then for (auto &x : unordered_set_of_things))re";
}

inline std::uint64_t budgetBytes() {
    // Digit separators must not break tokenization either.
    const std::uint64_t kWindow = 1'000'000;
    return kWindow * 2;
}

inline const char *plainText() {
    return "also fine: \"for (auto &kv : unordered_peers)\" in a "
           "plain literal with an escaped quote";
}
