#include "harness.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "serve/net_client.h"
#include "serve/wire.h"
#include "stats.h"

namespace perfbench {

using after::serve::FriendRequest;
using after::serve::FriendResponse;

double Since(Clock::time_point epoch) {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

Clock::time_point At(Clock::time_point epoch, double seconds) {
  return epoch + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double ThreadCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + now.tv_nsec * 1e-9;
}

double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void Report::Fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

void Report::Add(bool per_layer_metric, const std::string& name,
                 double value, const std::string& unit) {
  (per_layer_metric ? per_layer : end_to_end).push_back({name, value, unit});
}

std::string Report::Json(bool traced) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  const std::vector<Metric>& metrics = traced ? per_layer : end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

int64_t Tracer::Add(const char* name, double start_s, double end_s,
                    int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_s, end_s, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"parent\": %lld, \"request\": %lld}\n",
                 i, s.name, s.start_s, s.end_s,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(file) == 0;
}

namespace {

/// One one-epoch training pass (two targets of session 0, seed 7 + pass);
/// returns its thread CPU time.
double TrainPass(after::Poshgnn* model, const after::Dataset& dataset,
                 int pass) {
  after::TrainOptions options;
  options.epochs = 1;
  options.targets_per_epoch = 2;
  options.train_sessions = {0};
  options.seed = 7 + pass;
  const double start = ThreadCpuSeconds();
  model->Train(dataset, options);
  return ThreadCpuSeconds() - start;
}

}  // namespace

double PaperModel::TrainSeconds() const {
  if (pass_cpu_s.empty()) return 0.0;
  return kTrainPasses * *std::min_element(pass_cpu_s.begin(),
                                          pass_cpu_s.end());
}

void TimeLateTrainingPasses(PaperModel* model) {
  after::Poshgnn scratch(model->trained->config());
  for (int pass = 0; pass < kLateTrainPasses; ++pass)
    model->pass_cpu_s.push_back(TrainPass(&scratch, model->dataset, pass));
  std::fprintf(stderr, "training passes (s of CPU):");
  for (double pass : model->pass_cpu_s) std::fprintf(stderr, " %.3f", pass);
  std::fprintf(stderr, "\n");
}

PaperModel TrainPaperModel() {
  PaperModel model;
  const Clock::time_point start = Clock::now();
  after::DatasetConfig config;  // N = 200, T = 100, 50% VR, 10 m room
  config.num_sessions = 2;
  config.seed = 1;
  model.dataset = after::GenerateTimikLike(config);
  model.generate_s = Since(start);

  const Clock::time_point train_start = Clock::now();
  after::PoshgnnConfig poshgnn;  // k = 10, beta = 0.5, alpha = 0.01
  model.trained = std::make_unique<after::Poshgnn>(poshgnn);
  for (int pass = 0; pass < kTrainPasses; ++pass)
    model.pass_cpu_s.push_back(TrainPass(model.trained.get(), model.dataset,
                                         pass));
  model.train_wall_s = Since(train_start);
  return model;
}

after::Dataset LiveRoomDataset(int users, uint64_t seed) {
  after::DatasetConfig config;
  config.num_users = users;
  config.num_steps = 2;
  config.num_sessions = 1;
  config.seed = seed;
  return after::GenerateTimikLike(config);
}

namespace {
thread_local ModelCall last_model_call;
}  // namespace

ModelCall TakeModelCall() {
  const ModelCall call = last_model_call;
  last_model_call = ModelCall();
  return call;
}

std::vector<bool> TimedRecommender::Recommend(
    const after::StepContext& context) {
  const double entry = Since(epoch_);
  std::vector<bool> answer = inner_->Recommend(context);
  last_model_call = {entry, Since(epoch_)};
  return answer;
}

namespace {

bool ValidResponse(const FriendResponse& response, int n, int user,
                   int max_k, std::string* why) {
  if (!response.status.ok()) {
    *why = "status " + response.status.ToString();
    return false;
  }
  if (response.used_fallback) {
    *why = "answered by the Nearest fallback";
    return false;
  }
  if (static_cast<int>(response.recommended.size()) != n) {
    *why = "answer has " + std::to_string(response.recommended.size()) +
           " slots, room has " + std::to_string(n);
    return false;
  }
  if (response.recommended[user]) {
    *why = "answer recommends the requesting user";
    return false;
  }
  int count = 0;
  for (bool r : response.recommended) count += r ? 1 : 0;
  if (count > max_k) {
    *why = "answer recommends " + std::to_string(count) + " > k users";
    return false;
  }
  return true;
}

}  // namespace

void Complete(Record* record, const FriendResponse& response, int n,
              int max_k, double now_s) {
  record->done_s = now_s;
  record->tick = response.tick;
  record->ok = ValidResponse(response, n, record->user, max_k, &record->why);
  if (record->keep_answer) record->answer = response.recommended;
  record->answered = true;
}

InProcessSender::InProcessSender(after::serve::RecommendationServer* server,
                                 std::vector<int> users, int max_k,
                                 Clock::time_point epoch, bool traced,
                                 double deadline_ms)
    : server_(server), users_(std::move(users)), max_k_(max_k),
      epoch_(epoch), traced_(traced), deadline_ms_(deadline_ms) {}

void InProcessSender::Send(Record* record, int room_id) {
  FriendRequest request;
  request.room = room_id;
  request.user = record->user;
  request.deadline_ms = deadline_ms_;
  if (traced_) {
    const auto room = server_->FindRoom(room_id);
    record->prebuilt =
        room != nullptr && room->snapshot()->occlusion_built(record->user);
    record->submit_s = Since(epoch_);
  }
  server_->Submit(request, [this, record](const FriendResponse& response) {
    const double now = Since(epoch_);
    if (traced_) {
      const ModelCall call = TakeModelCall();
      record->model_entry_s = call.entry_s;
      record->model_exit_s = call.exit_s;
    }
    Complete(record, response, users_[record->room], max_k_, now);
    on_done(record);
  });
}

WireSender::WireSender(std::vector<int> users, int max_k,
                       Clock::time_point epoch, double deadline_ms)
    : users_(std::move(users)), max_k_(max_k), epoch_(epoch),
      deadline_ms_(deadline_ms) {}

WireSender::~WireSender() { Close(); }

bool WireSender::Connect(const std::string& host, int port,
                         int connections) {
  for (int i = 0; i < connections; ++i) {
    auto fd = after::serve::net_detail::DialBlocking(host, port, 2000.0);
    if (!fd.ok()) {
      std::fprintf(stderr, "dial %s:%d: %s\n", host.c_str(), port,
                   fd.status().ToString().c_str());
      return false;
    }
    fds_.push_back(fd.value());
    send_mutex_.push_back(std::make_unique<std::mutex>());
  }
  receiver_ = std::thread([this] { Receive(); });
  return true;
}

void WireSender::Send(Record* record, int room_id) {
  FriendRequest request;
  request.room = room_id;
  request.user = record->user;
  request.deadline_ms = deadline_ms_;
  std::string frame;
  after::serve::wire::AppendRequestFrame(
      static_cast<uint64_t>(record->id) + 1, request, &frame);
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_[static_cast<uint64_t>(record->id) + 1] = record;
  }
  const size_t link = next_link_.fetch_add(1) % fds_.size();
  std::lock_guard<std::mutex> lock(*send_mutex_[link]);
  const after::Status sent =
      after::serve::net_detail::SendAllFd(fds_[link], frame);
  if (!sent.ok()) {
    record->why = "send failed: " + sent.ToString();
    record->done_s = Since(epoch_);
    record->answered = true;
    on_done(record);
  }
}

void WireSender::Receive() {
  namespace wire = after::serve::wire;
  std::vector<std::string> buffers(fds_.size());
  std::vector<pollfd> polls(fds_.size());
  for (size_t i = 0; i < fds_.size(); ++i) polls[i] = {fds_[i], POLLIN, 0};
  char chunk[1 << 16];
  while (!stop_.load(std::memory_order_relaxed)) {
    if (poll(polls.data(), polls.size(), 20) <= 0) continue;
    for (size_t i = 0; i < fds_.size(); ++i) {
      if ((polls[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = read(fds_[i], chunk, sizeof(chunk));
      if (got <= 0) {
        if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        polls[i].fd = -1;  // peer closed; stop polling this link
        continue;
      }
      buffers[i].append(chunk, static_cast<size_t>(got));
      size_t offset = 0;
      while (true) {
        wire::Frame frame;
        size_t consumed = 0;
        const std::string_view rest(buffers[i].data() + offset,
                                    buffers[i].size() - offset);
        if (!wire::ExtractFrame(rest, &frame, &consumed).ok() ||
            consumed == 0)
          break;
        offset += consumed;
        const double now = Since(epoch_);
        auto decoded = wire::DecodeResponse(frame.payload);
        if (frame.type != wire::MessageType::kResponse || !decoded.ok()) {
          stray_.fetch_add(1);
          continue;
        }
        Record* record = nullptr;
        {
          std::lock_guard<std::mutex> lock(pending_mutex_);
          const auto it = pending_.find(decoded.value().id);
          if (it != pending_.end()) {
            record = it->second;
            pending_.erase(it);
          }
        }
        if (record == nullptr) {
          stray_.fetch_add(1);
          continue;
        }
        Complete(record, decoded.value().response, users_[record->room],
                 max_k_, now);
        on_done(record);
      }
      buffers[i].erase(0, offset);
    }
  }
}

void WireSender::Close() {
  stop_.store(true);
  if (receiver_.joinable()) receiver_.join();
  for (int fd : fds_) {
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
  fds_.clear();
}

void Outstanding::Add() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++count_;
}

void Outstanding::Done() {
  std::lock_guard<std::mutex> lock(mutex_);
  --count_;
  cv_.notify_all();
}

bool Outstanding::WaitBelow(int limit, Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_until(lock, deadline, [&] { return count_ < limit; });
}

Ticker::Ticker(std::function<double(int)> tick, int rooms, double period_s,
               int cycles, Clock::time_point epoch) {
  thread_ = std::thread([this, tick = std::move(tick), rooms, period_s,
                         cycles, epoch] {
    for (int c = 1; c < cycles; ++c) {
      for (int r = 0; r < rooms; ++r) {
        std::this_thread::sleep_until(
            At(epoch, CycleStart(r, rooms, period_s, c)));
        durations_ms_.push_back(tick(r));
      }
    }
  });
}

Ticker::~Ticker() { Join(); }

void Ticker::Join() {
  if (thread_.joinable()) thread_.join();
}

}  // namespace perfbench
