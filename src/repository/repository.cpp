#include "repository/repository.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace vdce::repo {
namespace {

using common::NotFoundError;
using common::ParseError;
using common::parse_double;
using common::parse_i32;
using common::parse_u32;
using common::parse_uint;
using common::split;
using common::trim;

// Persistence uses one record per line, tab-separated fields.  Strings
// are stored raw (task/user/host names never contain tabs by
// construction; we reject them at the API boundary if they do).
constexpr char kSep = '\t';

void check_no_tab(const std::string& s) {
  if (s.find(kSep) != std::string::npos) {
    throw ParseError("field contains a tab character: '" + s + "'");
  }
}

std::ofstream open_out(const std::filesystem::path& p) {
  std::ofstream out(p);
  if (!out) throw NotFoundError("cannot write " + p.string());
  return out;
}

std::ifstream open_in(const std::filesystem::path& p) {
  std::ifstream in(p);
  if (!in) throw NotFoundError("cannot read " + p.string());
  return in;
}

}  // namespace

void SiteRepository::save(const std::filesystem::path& dir) const {
  std::filesystem::create_directories(dir);

  {
    auto out = open_out(dir / "users.db");
    for (const auto& u : users_.all()) {
      check_no_tab(u.user_name);
      check_no_tab(u.access_domain);
      out << u.user_name << kSep << u.password_hash << kSep << u.salt << kSep
          << u.user_id.value() << kSep << u.priority << kSep
          << u.access_domain << '\n';
    }
  }
  {
    auto out = open_out(dir / "resources.db");
    out.precision(17);
    for (const auto& r : resources_.all_hosts()) {
      check_no_tab(r.static_attrs.host_name);
      out << "host" << kSep << r.host.value() << kSep
          << r.static_attrs.host_name << kSep << r.static_attrs.ip_address
          << kSep << to_string(r.static_attrs.arch) << kSep
          << to_string(r.static_attrs.os) << kSep
          << r.static_attrs.total_memory_mb << kSep
          << r.static_attrs.site.value() << kSep
          << r.static_attrs.group.value() << kSep << r.dynamic_attrs.cpu_load
          << kSep << r.dynamic_attrs.available_memory_mb << kSep
          << (r.dynamic_attrs.alive ? 1 : 0) << kSep
          << r.dynamic_attrs.last_update << '\n';
    }
  }
  {
    auto out = open_out(dir / "tasks.db");
    out.precision(17);
    for (const auto& name : tasks_.task_names()) {
      const auto rec = tasks_.get(name);
      check_no_tab(rec.task_name);
      out << "task" << kSep << rec.task_name << kSep << rec.base_time_s
          << kSep << rec.computation_size << kSep
          << rec.communication_size_mb << kSep << rec.memory_req_mb;
      for (double h : rec.measured_history) out << kSep << h;
      out << '\n';
    }
    for (const auto& [task, host, w] : tasks_.all_host_weights()) {
      out << "hostweight" << kSep << task << kSep << host.value() << kSep << w
          << '\n';
    }
    for (const auto& [task, arch, w] : tasks_.all_arch_weights()) {
      out << "archweight" << kSep << task << kSep << to_string(arch) << kSep
          << w << '\n';
    }
  }
  {
    auto out = open_out(dir / "constraints.db");
    for (const auto& c : constraints_.all()) {
      check_no_tab(c.task_name);
      check_no_tab(c.executable_path);
      out << c.task_name << kSep << c.host.value() << kSep
          << c.executable_path << '\n';
    }
  }
}

void SiteRepository::load(const std::filesystem::path& dir) {

  {
    auto in = open_in(dir / "users.db");
    std::string line;
    while (std::getline(in, line)) {
      if (trim(line).empty()) continue;
      const auto f = split(line, kSep);
      if (f.size() != 6) throw ParseError("bad users.db row: " + line);
      UserAccount u;
      u.user_name = f[0];
      u.password_hash = parse_uint(f[1], "users.db password_hash");
      u.salt = parse_uint(f[2], "users.db salt");
      u.user_id = UserId(parse_u32(f[3], "users.db user_id"));
      u.priority = parse_i32(f[4], "users.db priority");
      u.access_domain = f[5];
      users_.restore(u);
    }
  }
  {
    auto in = open_in(dir / "resources.db");
    std::string line;
    while (std::getline(in, line)) {
      if (trim(line).empty()) continue;
      const auto f = split(line, kSep);
      if (f.empty() || f[0] != "host" || f.size() != 13) {
        throw ParseError("bad resources.db row: " + line);
      }
      HostRecord r;
      r.host = HostId(parse_u32(f[1], "resources.db host"));
      r.static_attrs.host_name = f[2];
      r.static_attrs.ip_address = f[3];
      r.static_attrs.arch = arch_from_string(f[4]);
      r.static_attrs.os = os_from_string(f[5]);
      r.static_attrs.total_memory_mb =
          parse_double(f[6], "resources.db total_memory");
      r.static_attrs.site = SiteId(parse_u32(f[7], "resources.db site"));
      r.static_attrs.group = GroupId(parse_u32(f[8], "resources.db group"));
      r.dynamic_attrs.cpu_load = parse_double(f[9], "resources.db load");
      r.dynamic_attrs.available_memory_mb =
          parse_double(f[10], "resources.db avail_memory");
      r.dynamic_attrs.alive = parse_uint(f[11], "resources.db alive") != 0;
      r.dynamic_attrs.last_update =
          parse_double(f[12], "resources.db last_update");
      resources_.restore(r);
    }
  }
  {
    auto in = open_in(dir / "tasks.db");
    std::string line;
    while (std::getline(in, line)) {
      if (trim(line).empty()) continue;
      const auto f = split(line, kSep);
      if (f.empty()) continue;
      if (f[0] == "task") {
        if (f.size() < 6) throw ParseError("bad tasks.db row: " + line);
        TaskPerformanceRecord rec;
        rec.task_name = f[1];
        rec.base_time_s = parse_double(f[2], "tasks.db base_time");
        rec.computation_size = parse_double(f[3], "tasks.db comp_size");
        rec.communication_size_mb = parse_double(f[4], "tasks.db comm_size");
        rec.memory_req_mb = parse_double(f[5], "tasks.db mem_req");
        for (std::size_t i = 6; i < f.size(); ++i) {
          rec.measured_history.push_back(
              parse_double(f[i], "tasks.db history"));
        }
        tasks_.register_task(rec);
      } else if (f[0] == "hostweight") {
        if (f.size() != 4) throw ParseError("bad tasks.db row: " + line);
        tasks_.set_power_weight(f[1], HostId(parse_u32(f[2], "tasks.db host")),
                                parse_double(f[3], "tasks.db weight"));
      } else if (f[0] == "archweight") {
        if (f.size() != 4) throw ParseError("bad tasks.db row: " + line);
        tasks_.set_arch_weight(f[1], arch_from_string(f[2]),
                                    parse_double(f[3], "tasks.db weight"));
      } else {
        throw ParseError("bad tasks.db row: " + line);
      }
    }
  }
  {
    auto in = open_in(dir / "constraints.db");
    std::string line;
    while (std::getline(in, line)) {
      if (trim(line).empty()) continue;
      const auto f = split(line, kSep);
      if (f.size() != 3) throw ParseError("bad constraints.db row: " + line);
      constraints_.set_location(
          f[0], HostId(parse_u32(f[1], "constraints.db host")), f[2]);
    }
  }
}

}  // namespace vdce::repo
