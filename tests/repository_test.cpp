// Unit tests for the site repository: the four databases and their
// persistence round-trip.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "repository/repository.hpp"

namespace vdce::repo {
namespace {

using common::AuthError;
using common::HostId;
using common::NotFoundError;
using common::SiteId;
using common::StateError;

// ------------------------------------------------------------- users

TEST(UserDb, AddAndAuthenticate) {
  UserAccountsDb db;
  const auto id = db.add_user("alice", "secret", 2, "wan");
  EXPECT_TRUE(id.valid());
  const auto acct = db.authenticate("alice", "secret");
  EXPECT_EQ(acct.user_name, "alice");
  EXPECT_EQ(acct.priority, 2);
  EXPECT_EQ(acct.access_domain, "wan");
  EXPECT_EQ(acct.user_id, id);
}

TEST(UserDb, WrongPasswordRejected) {
  UserAccountsDb db;
  db.add_user("alice", "secret", 1, "local");
  EXPECT_THROW((void)db.authenticate("alice", "wrong"), AuthError);
}

TEST(UserDb, UnknownUserRejected) {
  UserAccountsDb db;
  EXPECT_THROW((void)db.authenticate("bob", "x"), AuthError);
}

TEST(UserDb, DuplicateNameRejected) {
  UserAccountsDb db;
  db.add_user("alice", "a", 1, "local");
  EXPECT_THROW(db.add_user("alice", "b", 1, "local"), StateError);
}

TEST(UserDb, PasswordNotStoredInPlaintext) {
  UserAccountsDb db;
  db.add_user("alice", "secret", 1, "local");
  const auto acct = db.find("alice");
  ASSERT_TRUE(acct.has_value());
  // Only the salted hash is retained.
  EXPECT_NE(acct->password_hash, 0u);
}

TEST(UserDb, SetPassword) {
  UserAccountsDb db;
  db.add_user("alice", "old", 1, "local");
  db.set_password("alice", "new");
  EXPECT_THROW((void)db.authenticate("alice", "old"), AuthError);
  EXPECT_NO_THROW((void)db.authenticate("alice", "new"));
}

TEST(UserDb, RemoveUser) {
  UserAccountsDb db;
  db.add_user("alice", "a", 1, "local");
  db.remove_user("alice");
  EXPECT_EQ(db.size(), 0u);
  EXPECT_THROW(db.remove_user("alice"), NotFoundError);
}

TEST(UserDb, UniqueIds) {
  UserAccountsDb db;
  const auto a = db.add_user("a", "x", 1, "local");
  const auto b = db.add_user("b", "x", 1, "local");
  EXPECT_NE(a, b);
}

TEST(UserDb, SaltsDifferPerUser) {
  UserAccountsDb db;
  db.add_user("a", "same", 1, "local");
  db.add_user("b", "same", 1, "local");
  EXPECT_NE(db.find("a")->password_hash, db.find("b")->password_hash);
}

// ---------------------------------------------------------- resources

HostStaticAttrs host_attrs(const std::string& name, SiteId site = SiteId(0),
                           common::GroupId group = common::GroupId(0)) {
  HostStaticAttrs a;
  a.host_name = name;
  a.ip_address = "10.0.0.1";
  a.arch = ArchType::kSparc;
  a.os = OsType::kSolaris;
  a.total_memory_mb = 128.0;
  a.site = site;
  a.group = group;
  return a;
}

TEST(ResourceDb, RegisterAndGet) {
  ResourcePerformanceDb db;
  const auto id = db.register_host(host_attrs("h1"));
  const auto rec = db.get(id);
  EXPECT_EQ(rec.static_attrs.host_name, "h1");
  // Initial available memory = total.
  EXPECT_DOUBLE_EQ(rec.dynamic_attrs.available_memory_mb, 128.0);
  EXPECT_TRUE(rec.dynamic_attrs.alive);
}

TEST(ResourceDb, DuplicateNameRejected) {
  ResourcePerformanceDb db;
  db.register_host(host_attrs("h1"));
  EXPECT_THROW(db.register_host(host_attrs("h1")), StateError);
}

TEST(ResourceDb, UpdateDynamic) {
  ResourcePerformanceDb db;
  const auto id = db.register_host(host_attrs("h1"));
  HostDynamicAttrs dyn;
  dyn.cpu_load = 2.5;
  dyn.available_memory_mb = 64.0;
  dyn.last_update = 10.0;
  db.update_dynamic(id, dyn);
  EXPECT_DOUBLE_EQ(db.get(id).dynamic_attrs.cpu_load, 2.5);
}

TEST(ResourceDb, MarkDownExcludesFromAlive) {
  ResourcePerformanceDb db;
  const auto a = db.register_host(host_attrs("h1"));
  db.register_host(host_attrs("h2"));
  db.set_alive(a, false, 5.0);
  EXPECT_EQ(db.alive_hosts().size(), 1u);
  EXPECT_EQ(db.all_hosts().size(), 2u);
  db.set_alive(a, true, 9.0);
  EXPECT_EQ(db.alive_hosts().size(), 2u);
}

TEST(ResourceDb, FindByName) {
  ResourcePerformanceDb db;
  const auto id = db.register_host(host_attrs("syr-sparc-0"));
  const auto rec = db.find_by_name("syr-sparc-0");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->host, id);
  EXPECT_FALSE(db.find_by_name("nope").has_value());
}

TEST(ResourceDb, SiteAndGroupFilters) {
  ResourcePerformanceDb db;
  db.register_host(host_attrs("a", SiteId(0), common::GroupId(0)));
  db.register_host(host_attrs("b", SiteId(0), common::GroupId(1)));
  db.register_host(host_attrs("c", SiteId(1), common::GroupId(2)));
  EXPECT_EQ(db.hosts_in_site(SiteId(0)).size(), 2u);
  EXPECT_EQ(db.hosts_in_site(SiteId(1)).size(), 1u);
  EXPECT_EQ(db.hosts_in_group(common::GroupId(1)).size(), 1u);
}

TEST(ResourceDb, RemoveHost) {
  ResourcePerformanceDb db;
  const auto id = db.register_host(host_attrs("h1"));
  db.remove_host(id);
  EXPECT_EQ(db.size(), 0u);
  EXPECT_THROW(db.remove_host(id), NotFoundError);
  // The name is free again.
  EXPECT_NO_THROW(db.register_host(host_attrs("h1")));
}

TEST(ResourceDb, NetworkAttrsSymmetric) {
  ResourcePerformanceDb db;
  NetworkAttrs attrs;
  attrs.latency_s = 0.02;
  attrs.transfer_mb_per_s = 4.0;
  db.update_site_network(SiteId(0), SiteId(1), attrs);
  const auto forward = db.site_network(SiteId(0), SiteId(1));
  const auto backward = db.site_network(SiteId(1), SiteId(0));
  ASSERT_TRUE(forward && backward);
  EXPECT_DOUBLE_EQ(forward->latency_s, backward->latency_s);
  EXPECT_FALSE(db.site_network(SiteId(0), SiteId(2)).has_value());
}

TEST(ResourceDb, UnknownHostThrows) {
  ResourcePerformanceDb db;
  EXPECT_THROW((void)db.get(HostId(99)), NotFoundError);
  EXPECT_FALSE(db.find(HostId(99)).has_value());
}

// -------------------------------------------------------------- tasks

TaskPerformanceRecord task_rec(const std::string& name, double base = 1.0) {
  TaskPerformanceRecord r;
  r.task_name = name;
  r.base_time_s = base;
  r.computation_size = 2.0;
  r.communication_size_mb = 0.5;
  r.memory_req_mb = 16.0;
  return r;
}

TEST(TaskDb, RegisterAndGet) {
  TaskPerformanceDb db;
  db.register_task(task_rec("fft", 0.3));
  const auto rec = db.get("fft");
  EXPECT_DOUBLE_EQ(rec.base_time_s, 0.3);
  EXPECT_TRUE(db.contains("fft"));
  EXPECT_FALSE(db.contains("nope"));
  EXPECT_THROW((void)db.get("nope"), NotFoundError);
}

TEST(TaskDb, PowerWeightResolutionOrder) {
  TaskPerformanceDb db;
  db.register_task(task_rec("fft"));
  // No weights: 1.0.
  EXPECT_DOUBLE_EQ(db.power_weight("fft", HostId(0), ArchType::kSparc), 1.0);
  // Arch fallback.
  db.set_arch_weight("fft", ArchType::kSparc, 1.5);
  EXPECT_DOUBLE_EQ(db.power_weight("fft", HostId(0), ArchType::kSparc), 1.5);
  // Host-specific wins.
  db.set_power_weight("fft", HostId(0), 2.5);
  EXPECT_DOUBLE_EQ(db.power_weight("fft", HostId(0), ArchType::kSparc), 2.5);
  // Other hosts still fall back.
  EXPECT_DOUBLE_EQ(db.power_weight("fft", HostId(1), ArchType::kSparc), 1.5);
}

TEST(TaskDb, RejectsNonPositiveWeight) {
  TaskPerformanceDb db;
  EXPECT_THROW(db.set_power_weight("fft", HostId(0), 0.0), StateError);
  EXPECT_THROW(db.set_arch_weight("fft", ArchType::kSparc, -1.0), StateError);
}

TEST(TaskDb, MeasurementHistoryBounded) {
  TaskPerformanceDb db;
  db.register_task(task_rec("fft"));
  for (int i = 0; i < 100; ++i) {
    db.record_measurement("fft", static_cast<double>(i));
  }
  const auto rec = db.get("fft");
  EXPECT_EQ(rec.measured_history.size(), TaskPerformanceDb::kHistoryCapacity);
  // Newest retained.
  EXPECT_DOUBLE_EQ(rec.measured_history.back(), 99.0);
}

TEST(TaskDb, MeasurementUnknownTaskThrows) {
  TaskPerformanceDb db;
  EXPECT_THROW(db.record_measurement("nope", 1.0), NotFoundError);
}

TEST(TaskDb, TaskNamesSorted) {
  TaskPerformanceDb db;
  db.register_task(task_rec("zeta"));
  db.register_task(task_rec("alpha"));
  const auto names = db.task_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

// -------------------------------------------------------- constraints

TEST(ConstraintDb, LocationRoundTrip) {
  TaskConstraintsDb db;
  db.set_location("fft", HostId(1), "/usr/local/bin/fft");
  EXPECT_TRUE(db.can_run("fft", HostId(1)));
  EXPECT_FALSE(db.can_run("fft", HostId(2)));
  EXPECT_EQ(db.location("fft", HostId(1)).value(), "/usr/local/bin/fft");
}

TEST(ConstraintDb, HostsForSorted) {
  TaskConstraintsDb db;
  db.set_location("fft", HostId(5), "/a");
  db.set_location("fft", HostId(1), "/b");
  const auto hosts = db.hosts_for("fft");
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts[0], HostId(1));
  EXPECT_EQ(hosts[1], HostId(5));
  EXPECT_TRUE(db.hosts_for("nope").empty());
}

TEST(ConstraintDb, ClearLocation) {
  TaskConstraintsDb db;
  db.set_location("fft", HostId(1), "/a");
  db.clear_location("fft", HostId(1));
  EXPECT_FALSE(db.can_run("fft", HostId(1)));
  EXPECT_NO_THROW(db.clear_location("fft", HostId(1)));  // idempotent
}

TEST(ConstraintDb, RemoveHostDropsAllRows) {
  TaskConstraintsDb db;
  db.set_location("fft", HostId(1), "/a");
  db.set_location("lu", HostId(1), "/b");
  db.set_location("lu", HostId(2), "/c");
  db.remove_host(HostId(1));
  EXPECT_FALSE(db.can_run("fft", HostId(1)));
  EXPECT_TRUE(db.can_run("lu", HostId(2)));
  EXPECT_EQ(db.size(), 1u);
}

// -------------------------------------------------------- persistence

class RepositoryPersistence : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vdce_repo_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(RepositoryPersistence, FullRoundTrip) {
  SiteRepository repo(SiteId(3));
  repo.users().add_user("alice", "pw", 2, "wan");
  const auto host = repo.resources().register_host(host_attrs("h1"));
  HostDynamicAttrs dyn;
  dyn.cpu_load = 1.25;
  dyn.available_memory_mb = 100.0;
  dyn.alive = false;
  dyn.last_update = 42.5;
  repo.resources().update_dynamic(host, dyn);
  NetworkAttrs net;
  net.latency_s = 0.01;
  net.transfer_mb_per_s = 8.0;
  repo.resources().update_site_network(SiteId(0), SiteId(1), net);

  repo.tasks().register_task(task_rec("fft", 0.3));
  repo.tasks().set_power_weight("fft", host, 1.75);
  repo.tasks().set_arch_weight("fft", ArchType::kAlpha, 2.25);
  repo.tasks().record_measurement("fft", 0.31);
  repo.tasks().record_measurement("fft", 0.29);

  repo.constraints().set_location("fft", host, "/opt/fft");

  repo.save(dir_);

  SiteRepository loaded(SiteId(3));
  loaded.load(dir_);

  // Users.
  const auto acct = loaded.users().authenticate("alice", "pw");
  EXPECT_EQ(acct.priority, 2);
  // Resources.
  const auto rec = loaded.resources().get(host);
  EXPECT_EQ(rec.static_attrs.host_name, "h1");
  EXPECT_DOUBLE_EQ(rec.dynamic_attrs.cpu_load, 1.25);
  EXPECT_FALSE(rec.dynamic_attrs.alive);
  EXPECT_DOUBLE_EQ(rec.dynamic_attrs.last_update, 42.5);
  // Note: site network links are monitoring state, re-measured at
  // bring-up, and are not persisted rows in the prototype format.
  // Tasks.
  const auto task = loaded.tasks().get("fft");
  EXPECT_DOUBLE_EQ(task.base_time_s, 0.3);
  ASSERT_EQ(task.measured_history.size(), 2u);
  EXPECT_DOUBLE_EQ(task.measured_history[1], 0.29);
  EXPECT_DOUBLE_EQ(
      loaded.tasks().power_weight("fft", host, ArchType::kSparc), 1.75);
  EXPECT_DOUBLE_EQ(
      loaded.tasks().power_weight("fft", HostId(9), ArchType::kAlpha), 2.25);
  // Constraints.
  EXPECT_EQ(loaded.constraints().location("fft", host).value(), "/opt/fft");
}

TEST_F(RepositoryPersistence, LoadMissingDirThrows) {
  SiteRepository repo(SiteId(0));
  EXPECT_THROW(repo.load(dir_ / "nope"), NotFoundError);
}

TEST_F(RepositoryPersistence, MalformedRowThrows) {
  SiteRepository repo(SiteId(0));
  repo.save(dir_);
  {
    std::ofstream out(dir_ / "users.db");
    out << "only_two\tfields\n";
  }
  SiteRepository loaded(SiteId(0));
  EXPECT_THROW(loaded.load(dir_), common::ParseError);
}

// A saved repository with one row in each of the four files.
void save_sample(const std::filesystem::path& dir) {
  SiteRepository repo(SiteId(3));
  repo.users().add_user("alice", "pw", 2, "wan");
  const auto host =
      repo.resources().register_host(host_attrs("h1", SiteId(3)));
  repo.tasks().register_task(task_rec("fft", 0.3));
  repo.tasks().set_power_weight("fft", host, 1.75);
  repo.tasks().record_measurement("fft", 0.31);
  repo.constraints().set_location("fft", host, "bin/fft");
  repo.save(dir);
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& p, const std::string& text) {
  std::ofstream(p) << text;
}

TEST_F(RepositoryPersistence, OutOfRangeIdsAreRejected) {
  // Each 32-bit id column, set to 2^32 + 2 (which used to wrap to 2).
  const std::vector<std::pair<std::string, std::size_t>> columns = {
      {"users.db", 3},     {"resources.db", 1}, {"resources.db", 7},
      {"resources.db", 8}, {"tasks.db", 2},     {"constraints.db", 1}};
  for (const auto& [file, column] : columns) {
    save_sample(dir_);
    std::string text;
    for (const auto& line : common::split(read_file(dir_ / file), '\n')) {
      if (line.empty()) continue;
      auto fields = common::split(line, '\t');
      // tasks.db: only a hostweight row has a host id in column 2.
      if (fields[0] != "task" && column < fields.size()) {
        fields[column] = "4294967298";
      }
      text += common::join(fields, "\t") + "\n";
    }
    write_file(dir_ / file, text);
    SiteRepository loaded(SiteId(3));
    EXPECT_THROW(loaded.load(dir_), common::ParseError)
        << file << " column " << column;
  }
}

TEST_F(RepositoryPersistence, NonIntegerPrioritiesAreRejected) {
  // users.db column 4: none of these is an int, and casting any of them
  // from a parsed double would be undefined.
  for (const std::string priority : {"1e300", "nan", "2147483648"}) {
    save_sample(dir_);
    std::string text;
    const std::string users = read_file(dir_ / "users.db");
    for (const auto& line : common::split(users, '\n')) {
      if (line.empty()) continue;
      auto fields = common::split(line, '\t');
      fields[4] = priority;
      text += common::join(fields, "\t") + "\n";
    }
    write_file(dir_ / "users.db", text);
    SiteRepository loaded(SiteId(3));
    EXPECT_THROW(loaded.load(dir_), common::ParseError) << priority;
  }
}

// Seeded edits of a saved repository either load or throw a VdceError
// -- no other exception, no crash.
TEST_F(RepositoryPersistence, GarbageNeverEscapesVdceError) {
  save_sample(dir_);
  const std::vector<std::string> files = {"users.db", "resources.db",
                                          "tasks.db", "constraints.db"};
  std::vector<std::string> originals;
  for (const auto& f : files) originals.push_back(read_file(dir_ / f));
  const std::string alphabet = "0123456789e.-+ \t\nhostaskw";
  common::Rng rng(557);
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t which = rng.uniform_int(files.size());
    std::string edited = originals[which];
    for (auto n = 1 + rng.uniform_int(6); n > 0; --n) {
      const std::size_t pos = rng.uniform_int(edited.size() + 1);
      const char c = alphabet[rng.uniform_int(alphabet.size())];
      switch (rng.uniform_int(3)) {
        case 0: edited.insert(pos, 1, c); break;
        case 1: if (pos < edited.size()) edited[pos] = c; break;
        default: if (pos < edited.size()) edited.erase(pos, 1); break;
      }
    }
    write_file(dir_ / files[which], edited);
    try {
      SiteRepository loaded(SiteId(3));
      loaded.load(dir_);
    } catch (const common::VdceError&) {
      // the only acceptable failure mode
    }
    write_file(dir_ / files[which], originals[which]);
  }
}

TEST_F(RepositoryPersistence, EmptyRepositoryRoundTrip) {
  SiteRepository repo(SiteId(0));
  repo.save(dir_);
  SiteRepository loaded(SiteId(0));
  EXPECT_NO_THROW(loaded.load(dir_));
  EXPECT_EQ(loaded.users().size(), 0u);
  EXPECT_EQ(loaded.resources().size(), 0u);
}

// ------------------------------------------------------------ enums

TEST(EnumStrings, ArchRoundTrip) {
  for (const auto a : {ArchType::kSparc, ArchType::kIntel, ArchType::kAlpha,
                       ArchType::kPowerPc, ArchType::kMips}) {
    EXPECT_EQ(arch_from_string(to_string(a)), a);
  }
  EXPECT_THROW((void)arch_from_string("vax"), common::ParseError);
}

TEST(EnumStrings, OsRoundTrip) {
  for (const auto o : {OsType::kSolaris, OsType::kLinux, OsType::kOsf1,
                       OsType::kAix, OsType::kIrix}) {
    EXPECT_EQ(os_from_string(to_string(o)), o);
  }
  EXPECT_THROW((void)os_from_string("plan9"), common::ParseError);
}

}  // namespace
}  // namespace vdce::repo
