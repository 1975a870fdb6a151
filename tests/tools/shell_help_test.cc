// Help-drift gate for the fedql shell: every backslash command the
// dispatcher accepts must be documented in the grouped \help output, and
// every command \help documents must actually be dispatched. The shell is
// an interactive binary, so this audits its source directly (the path is
// injected by CMake) — the same technique as a docs lint, but compiled
// into the test suite so drift fails CI.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace fedcal {
namespace {

std::string ReadShellSource() {
  std::ifstream in(FEDQL_SHELL_SOURCE);
  EXPECT_TRUE(in.good()) << "cannot open " << FEDQL_SHELL_SOURCE;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The names that follow each occurrence of `prefix` in `text`: runs of
/// characters `allowed` accepts, of which one must end at `suffix` (empty
/// = anywhere). A plain scan rather than std::regex, whose libstdc++ code
/// GCC 12 warns about (maybe-uninitialized) under the sanitizer flags.
template <typename Allowed>
std::set<std::string> NamesAfter(const std::string& text,
                                 const std::string& prefix,
                                 const std::string& suffix, Allowed allowed) {
  std::set<std::string> names;
  for (size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at + 1)) {
    size_t end = at + prefix.size();
    while (end < text.size() && allowed(text[end])) ++end;
    const std::string name = text.substr(at + prefix.size(),
                                         end - at - prefix.size());
    if (!name.empty() && text.compare(end, suffix.size(), suffix) == 0) {
      names.insert(name);
    }
  }
  return names;
}

bool IsLower(char c) { return c >= 'a' && c <= 'z'; }

/// Commands the dispatcher compares against (`cmd == "..."`).
std::set<std::string> DispatchedCommands(const std::string& source) {
  return NamesAfter(source, "cmd == \"", "\"",
                    [](char c) { return IsLower(c) || c == '?'; });
}

/// Commands documented in PrintCommandList (source spells them `\\name`).
std::set<std::string> DocumentedCommands(const std::string& source) {
  const size_t begin = source.find("void PrintCommandList()");
  EXPECT_NE(begin, std::string::npos);
  const size_t end = source.find("\n}", begin);
  EXPECT_NE(end, std::string::npos);
  return NamesAfter(source.substr(begin, end - begin), "\\\\", "",
                    IsLower);
}

TEST(ShellHelpTest, EveryDispatchedCommandIsDocumented) {
  const std::string source = ReadShellSource();
  const std::set<std::string> dispatched = DispatchedCommands(source);
  const std::set<std::string> documented = DocumentedCommands(source);
  ASSERT_FALSE(dispatched.empty());
  ASSERT_FALSE(documented.empty());

  for (const std::string& cmd : dispatched) {
    // Single-character forms (q, h, ?) are aliases of documented
    // commands, not commands of their own.
    if (cmd.size() <= 1) continue;
    EXPECT_TRUE(documented.count(cmd))
        << "\\" << cmd << " is dispatched but missing from \\help "
        << "— add it to PrintCommandList";
  }
}

TEST(ShellHelpTest, EveryDocumentedCommandIsDispatched) {
  const std::string source = ReadShellSource();
  const std::set<std::string> dispatched = DispatchedCommands(source);
  for (const std::string& cmd : DocumentedCommands(source)) {
    EXPECT_TRUE(dispatched.count(cmd))
        << "\\help documents \\" << cmd
        << " but the dispatcher does not accept it";
  }
}

TEST(ShellHelpTest, CoreCommandRosterPresent) {
  // The roster \help must never silently lose — including the panels
  // added by later PRs (sched/contention/mode, profile/accuracy).
  const std::string source = ReadShellSource();
  const std::set<std::string> documented = DocumentedCommands(source);
  for (const char* cmd :
       {"tables", "explain", "profile", "accuracy", "trace", "sched",
        "contention", "mode", "health", "qcc", "help", "quit"}) {
    EXPECT_TRUE(documented.count(cmd)) << "\\" << cmd;
  }
}

}  // namespace
}  // namespace fedcal
