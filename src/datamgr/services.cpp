#include "datamgr/services.hpp"

#include <fstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace vdce::dm {

using common::NotFoundError;
using common::ParseError;
using common::StateError;

IoService::IoService(std::filesystem::path doc_root)
    : doc_root_(std::move(doc_root)) {}

std::filesystem::path IoService::resolve(const std::string& spec) const {
  if (common::starts_with(spec, "file:")) {
    return std::filesystem::path(spec.substr(5));
  }
  if (common::starts_with(spec, "url:")) {
    return doc_root_ / spec.substr(4);
  }
  throw ParseError("I/O spec must start with file: or url: -- got '" + spec +
                   "'");
}

tasklib::Payload IoService::read_input(const std::string& spec) const {
  const auto path = resolve(spec);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw NotFoundError("cannot read input: " + path.string());
  std::vector<std::byte> wire;
  char c;
  while (in.get(c)) wire.push_back(static_cast<std::byte>(c));
  return tasklib::Payload::from_wire(wire);
}

void IoService::write_output(const std::filesystem::path& path,
                             const tasklib::Payload& payload) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw NotFoundError("cannot write output: " + path.string());
  const auto& wire = payload.wire();
  out.write(reinterpret_cast<const char*>(wire.data()),
            static_cast<std::streamsize>(wire.size()));
}

void ConsoleService::suspend() {
  std::lock_guard lk(mu_);
  suspended_ = true;
}

void ConsoleService::resume() {
  {
    std::lock_guard lk(mu_);
    suspended_ = false;
  }
  cv_.notify_all();
}

void ConsoleService::abort() {
  {
    std::lock_guard lk(mu_);
    aborted_ = true;
    suspended_ = false;
  }
  cv_.notify_all();
}

bool ConsoleService::suspended() const {
  std::lock_guard lk(mu_);
  return suspended_;
}

bool ConsoleService::aborted() const {
  std::lock_guard lk(mu_);
  return aborted_;
}

void ConsoleService::checkpoint() {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return !suspended_ || aborted_; });
  if (aborted_) throw StateError("application aborted via console service");
}

}  // namespace vdce::dm
