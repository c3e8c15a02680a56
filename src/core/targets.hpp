// Measurement target lists, in the Citizen-Lab test-list tradition: a
// CSV of domains with categories ("the censorship measurement community's
// shared shopping list"). Campaigns turn these into trials;
// categories let reports break results down the way platforms publish
// them.
#pragma once

#include <string>
#include <vector>

namespace sm::core {

struct Target {
  std::string domain;
  std::string category;  // e.g. "NEWS", "POLI", "SOCI" (test-list codes)
  std::string note;
};

class TargetList {
 public:
  TargetList() = default;

  /// Parses "domain,category,note" CSV. A header row starting with
  /// "domain" and lines starting with '#' are skipped; missing trailing
  /// fields are allowed. Malformed lines are skipped and counted.
  static TargetList parse_csv(std::string_view csv);

  std::string to_csv() const;

  void add(Target target) { targets_.push_back(std::move(target)); }
  const std::vector<Target>& targets() const { return targets_; }
  size_t size() const { return targets_.size(); }
  bool empty() const { return targets_.empty(); }
  size_t skipped_lines() const { return skipped_; }

  std::vector<Target> by_category(std::string_view category) const;
  std::vector<std::string> categories() const;

  /// A small built-in sample list shaped like the global test list,
  /// using this testbed's domains.
  static TargetList builtin_sample();

 private:
  std::vector<Target> targets_;
  size_t skipped_ = 0;
};

}  // namespace sm::core
