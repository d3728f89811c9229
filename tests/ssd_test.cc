#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/failpoint.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "ssd/device.h"
#include "ssd/env.h"
#include "ssd/ftl.h"
#include "ssd/native.h"

namespace directload::ssd {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.page_size = 4096;
  g.pages_per_block = 8;
  g.num_blocks = 64;
  g.overprovision = 0.25;
  return g;
}

std::string PagePayload(char fill, size_t n = 4096) {
  return std::string(n, fill);
}

// ---------------------------------------------------------------------------
// Raw device semantics
// ---------------------------------------------------------------------------

TEST(SsdDeviceTest, ProgramReadEraseCycle) {
  SimClock clock;
  SsdDevice dev(SmallGeometry(), LatencyModel(), &clock);
  ASSERT_TRUE(dev.ProgramPage(0, PagePayload('a')).ok());
  std::string out;
  ASSERT_TRUE(dev.ReadPage(0, &out).ok());
  EXPECT_EQ(out, PagePayload('a'));
  ASSERT_TRUE(dev.InvalidatePage(0).ok());
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  EXPECT_EQ(dev.page_state(0), PageState::kErased);
}

TEST(SsdDeviceTest, CannotProgramProgrammedPage) {
  SimClock clock;
  SsdDevice dev(SmallGeometry(), LatencyModel(), &clock);
  ASSERT_TRUE(dev.ProgramPage(3, PagePayload('x')).ok());
  EXPECT_TRUE(dev.ProgramPage(3, PagePayload('y')).IsIOError());
}

TEST(SsdDeviceTest, CannotEraseBlockWithValidPages) {
  SimClock clock;
  SsdDevice dev(SmallGeometry(), LatencyModel(), &clock);
  ASSERT_TRUE(dev.ProgramPage(0, PagePayload('x')).ok());
  EXPECT_TRUE(dev.EraseBlock(0).IsIOError());
  ASSERT_TRUE(dev.InvalidatePage(0).ok());
  EXPECT_TRUE(dev.EraseBlock(0).ok());
}

TEST(SsdDeviceTest, ShortPayloadIsZeroPadded) {
  SimClock clock;
  SsdDevice dev(SmallGeometry(), LatencyModel(), &clock);
  ASSERT_TRUE(dev.ProgramPage(0, "abc").ok());
  std::string out;
  ASSERT_TRUE(dev.ReadPage(0, &out).ok());
  EXPECT_EQ(out.substr(0, 3), "abc");
  EXPECT_EQ(out[3], '\0');
  EXPECT_EQ(out.size(), 4096u);
}

TEST(SsdDeviceTest, OversizedPayloadRejected) {
  SimClock clock;
  SsdDevice dev(SmallGeometry(), LatencyModel(), &clock);
  EXPECT_TRUE(dev.ProgramPage(0, PagePayload('x', 4097)).IsInvalidArgument());
}

TEST(SsdDeviceTest, LatencyAdvancesSimClock) {
  SimClock clock;
  LatencyModel lat;
  SsdDevice dev(SmallGeometry(), lat, &clock);
  ASSERT_TRUE(dev.ProgramPage(0, PagePayload('a')).ok());
  EXPECT_EQ(clock.NowMicros(), lat.page_program_us);
  std::string out;
  ASSERT_TRUE(dev.ReadPage(0, &out).ok());
  EXPECT_EQ(clock.NowMicros(), lat.page_program_us + lat.page_read_us);
  ASSERT_TRUE(dev.InvalidatePage(0).ok());
  ASSERT_TRUE(dev.EraseBlock(0).ok());
  EXPECT_EQ(clock.NowMicros(),
            lat.page_program_us + lat.page_read_us + lat.block_erase_us);
}

TEST(SsdDeviceTest, StatsDistinguishHostAndGc) {
  SimClock clock;
  SsdDevice dev(SmallGeometry(), LatencyModel(), &clock);
  ASSERT_TRUE(dev.ProgramPage(0, PagePayload('a'), /*is_gc=*/false).ok());
  ASSERT_TRUE(dev.ProgramPage(1, PagePayload('b'), /*is_gc=*/true).ok());
  EXPECT_EQ(dev.stats().host_pages_written, 1u);
  EXPECT_EQ(dev.stats().gc_pages_migrated, 1u);
  EXPECT_EQ(dev.stats().device_pages_written(), 2u);
  EXPECT_DOUBLE_EQ(dev.stats().write_amplification(), 2.0);
}

// ---------------------------------------------------------------------------
// FTL
// ---------------------------------------------------------------------------

TEST(FtlTest, OverwriteRedirectsAndPreservesData) {
  SimClock clock;
  FtlDevice ftl(SmallGeometry(), LatencyModel(), &clock);
  ASSERT_TRUE(ftl.Write(5, PagePayload('a')).ok());
  ASSERT_TRUE(ftl.Write(5, PagePayload('b')).ok());
  std::string out;
  ASSERT_TRUE(ftl.Read(5, &out).ok());
  EXPECT_EQ(out, PagePayload('b'));
}

TEST(FtlTest, UnmappedReadsZeros) {
  SimClock clock;
  FtlDevice ftl(SmallGeometry(), LatencyModel(), &clock);
  std::string out;
  ASSERT_TRUE(ftl.Read(9, &out).ok());
  EXPECT_EQ(out, std::string(4096, '\0'));
}

TEST(FtlTest, TrimUnmaps) {
  SimClock clock;
  FtlDevice ftl(SmallGeometry(), LatencyModel(), &clock);
  ASSERT_TRUE(ftl.Write(1, PagePayload('a')).ok());
  EXPECT_TRUE(ftl.IsMapped(1));
  ASSERT_TRUE(ftl.Trim(1).ok());
  EXPECT_FALSE(ftl.IsMapped(1));
}

TEST(FtlTest, OverwriteChurnTriggersDeviceGcAndAmplification) {
  SimClock clock;
  FtlDevice ftl(SmallGeometry(), LatencyModel(), &clock);
  Random rnd(99);
  // Fill 80% of logical space, then churn overwrites: device GC must run and
  // migrate pages, so device writes exceed host writes.
  const uint64_t working_set = ftl.logical_pages() * 8 / 10;
  for (uint64_t lpa = 0; lpa < working_set; ++lpa) {
    ASSERT_TRUE(ftl.Write(lpa, PagePayload('a')).ok());
  }
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(ftl.Write(rnd.Uniform(working_set), PagePayload('b')).ok());
  }
  EXPECT_GT(ftl.gc_runs(), 0u);
  EXPECT_GT(ftl.stats().gc_pages_migrated, 0u);
  EXPECT_GT(ftl.stats().write_amplification(), 1.0);
  // Data integrity under GC migration.
  std::string out;
  ASSERT_TRUE(ftl.Read(0, &out).ok());
  EXPECT_TRUE(out == PagePayload('a') || out == PagePayload('b'));
}

TEST(FtlTest, SequentialFillWithinLogicalCapacitySucceeds) {
  SimClock clock;
  FtlDevice ftl(SmallGeometry(), LatencyModel(), &clock);
  for (uint64_t lpa = 0; lpa < ftl.logical_pages(); ++lpa) {
    ASSERT_TRUE(ftl.Write(lpa, PagePayload('x')).ok()) << lpa;
  }
  // With no invalid pages beyond OP the device is near-full but functional:
  // overwrites must still succeed (they create invalid pages first).
  for (uint64_t lpa = 0; lpa < 100; ++lpa) {
    ASSERT_TRUE(ftl.Write(lpa, PagePayload('y')).ok()) << lpa;
  }
}

// ---------------------------------------------------------------------------
// Native interface
// ---------------------------------------------------------------------------

TEST(NativeTest, AppendReadReleaseCycle) {
  SimClock clock;
  NativeSsd native(SmallGeometry(), LatencyModel(), &clock);
  Result<uint32_t> block = native.AllocateBlock();
  ASSERT_TRUE(block.ok());
  for (int i = 0; i < 8; ++i) {
    Result<uint32_t> page = native.AppendPage(*block, PagePayload('a' + i));
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(*page, static_cast<uint32_t>(i));
  }
  EXPECT_TRUE(native.AppendPage(*block, PagePayload('z')).status().IsNoSpace());
  std::string out;
  ASSERT_TRUE(native.ReadPage(*block, 3, &out).ok());
  EXPECT_EQ(out, PagePayload('d'));
  ASSERT_TRUE(native.ReleaseBlock(*block).ok());
  EXPECT_FALSE(native.IsOwned(*block));
}

TEST(NativeTest, NoDeviceGcEver) {
  SimClock clock;
  NativeSsd native(SmallGeometry(), LatencyModel(), &clock);
  // Allocate, fill, and release every block twice over: writes stay 1:1.
  for (int round = 0; round < 2; ++round) {
    std::vector<uint32_t> blocks;
    for (uint32_t i = 0; i < native.geometry().num_blocks; ++i) {
      Result<uint32_t> b = native.AllocateBlock();
      ASSERT_TRUE(b.ok());
      for (uint32_t p = 0; p < native.geometry().pages_per_block; ++p) {
        ASSERT_TRUE(native.AppendPage(*b, PagePayload('r')).ok());
      }
      blocks.push_back(*b);
    }
    EXPECT_TRUE(native.AllocateBlock().status().IsNoSpace());
    for (uint32_t b : blocks) ASSERT_TRUE(native.ReleaseBlock(b).ok());
  }
  EXPECT_EQ(native.stats().gc_pages_migrated, 0u);
  EXPECT_DOUBLE_EQ(native.stats().write_amplification(), 1.0);
}

TEST(NativeTest, ReadingUnwrittenPageRejected) {
  SimClock clock;
  NativeSsd native(SmallGeometry(), LatencyModel(), &clock);
  Result<uint32_t> block = native.AllocateBlock();
  ASSERT_TRUE(block.ok());
  std::string out;
  EXPECT_TRUE(native.ReadPage(*block, 0, &out).IsInvalidArgument());
}

TEST(NativeTest, UnownedBlockOperationsRejected) {
  SimClock clock;
  NativeSsd native(SmallGeometry(), LatencyModel(), &clock);
  EXPECT_TRUE(native.AppendPage(7, "x").status().IsInvalidArgument());
  EXPECT_TRUE(native.ReleaseBlock(7).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// SsdEnv (both interface modes)
// ---------------------------------------------------------------------------

class EnvTest : public ::testing::TestWithParam<InterfaceMode> {
 protected:
  EnvTest()
      : env_(NewSsdEnv(GetParam(), SmallGeometry(), LatencyModel(), &clock_)) {}

  SimClock clock_;
  std::unique_ptr<SsdEnv> env_;
};

TEST_P(EnvTest, WriteCloseReadRoundTrip) {
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  std::string content;
  Random rnd(1);
  for (int i = 0; i < 20; ++i) {
    const std::string chunk = rnd.NextString(1000 + i * 37);
    content += chunk;
    ASSERT_TRUE((*file)->Append(chunk).ok());
  }
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(*env_->GetFileSize("f"), content.size());

  auto reader = env_->NewRandomAccessFile("f");
  ASSERT_TRUE(reader.ok());
  std::string out;
  ASSERT_TRUE((*reader)->Read(0, content.size(), &out).ok());
  EXPECT_EQ(out, content);
  // Unaligned interior read.
  ASSERT_TRUE((*reader)->Read(4097, 8192, &out).ok());
  EXPECT_EQ(out, content.substr(4097, 8192));
  // Read clamped at EOF.
  ASSERT_TRUE((*reader)->Read(content.size() - 10, 100, &out).ok());
  EXPECT_EQ(out, content.substr(content.size() - 10));
}

TEST_P(EnvTest, PersistedSizeTracksFullPages) {
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(5000, 'x')).ok());
  EXPECT_EQ((*file)->Size(), 5000u);
  EXPECT_EQ((*file)->PersistedSize(), 4096u);  // One full page through.
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ((*file)->PersistedSize(), 5000u);
}

TEST_P(EnvTest, DeleteAndExistence) {
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello").ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE(env_->FileExists("f"));
  EXPECT_GT(env_->TotalFileBytes(), 0u);
  ASSERT_TRUE(env_->DeleteFile("f").ok());
  EXPECT_FALSE(env_->FileExists("f"));
  EXPECT_EQ(env_->TotalFileBytes(), 0u);
  EXPECT_TRUE(env_->DeleteFile("f").IsNotFound());
  EXPECT_TRUE(env_->NewRandomAccessFile("f").status().IsNotFound());
}

TEST_P(EnvTest, DeleteOpenFileRejected) {
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(env_->DeleteFile("f").IsBusy());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE(env_->DeleteFile("f").ok());
}

TEST_P(EnvTest, RenameReplacesTarget) {
  for (const char* name : {"a", "b"}) {
    auto f = env_->NewWritableFile(name);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(name).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  ASSERT_TRUE(env_->RenameFile("a", "b").ok());
  EXPECT_FALSE(env_->FileExists("a"));
  auto reader = env_->NewRandomAccessFile("b");
  ASSERT_TRUE(reader.ok());
  std::string out;
  ASSERT_TRUE((*reader)->Read(0, 1, &out).ok());
  EXPECT_EQ(out, "a");
}

TEST_P(EnvTest, ListFilesSorted) {
  for (const char* name : {"c", "a", "b"}) {
    auto f = env_->NewWritableFile(name);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  const std::vector<std::string> files = env_->ListFiles();
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], "a");
  EXPECT_EQ(files[2], "c");
}

TEST_P(EnvTest, DuplicateCreateRejected) {
  auto f = env_->NewWritableFile("f");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(env_->NewWritableFile("f").status().IsInvalidArgument());
}

TEST_P(EnvTest, HostBytesAppendedAccounted) {
  auto f = env_->NewWritableFile("f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(std::string(1234, 'x')).ok());
  EXPECT_EQ(env_->host_bytes_appended(), 1234u);
}

INSTANTIATE_TEST_SUITE_P(AllModes, EnvTest,
                         ::testing::Values(InterfaceMode::kPageMappedFtl,
                                           InterfaceMode::kNativeBlock),
                         [](const auto& info) {
                           return std::string(InterfaceModeName(info.param))
                                      .find("native") != std::string::npos
                                      ? "Native"
                                      : "Ftl";
                         });

TEST_P(EnvTest, CapacityReflectsInterfaceMode) {
  const uint64_t physical = env_->geometry().physical_bytes();
  if (GetParam() == InterfaceMode::kNativeBlock) {
    EXPECT_EQ(env_->CapacityBytes(), physical);
  } else {
    // The FTL reserves over-provisioning headroom.
    EXPECT_LT(env_->CapacityBytes(), physical);
    EXPECT_GT(env_->CapacityBytes(), physical / 2);
  }
}

TEST_P(EnvTest, FillToCapacityReportsNoSpace) {
  // Writing more than the capacity must fail with NoSpace, not corrupt.
  auto file = env_->NewWritableFile("big");
  ASSERT_TRUE(file.ok());
  const std::string chunk(1 << 20, 'x');
  Status s;
  uint64_t written = 0;
  while ((s = (*file)->Append(chunk)).ok()) {
    written += chunk.size();
    ASSERT_LT(written, env_->geometry().physical_bytes() * 2);
  }
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
  EXPECT_GT(written, env_->CapacityBytes() / 2);
}

// Pins, step by step, what each interface persists and what it costs the
// device. With 4 KB pages and 8-page (32 KB) blocks: the FTL programs a
// synced partial page and later completes it in place, while a native file
// keeps its partial tail in memory until Close pads it onto a fresh page.
TEST_P(EnvTest, PersistenceAndDeviceCostPerStep) {
  const bool ftl = GetParam() == InterfaceMode::kPageMappedFtl;
  Random rnd(7);
  const std::string content = rnd.NextString(41000);
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());

  // A partial page, then Sync: only the FTL writes it out.
  ASSERT_TRUE((*file)->Append(Slice(content.data(), 1000)).ok());
  EXPECT_EQ((*file)->PersistedSize(), 0u);
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_EQ((*file)->PersistedSize(), ftl ? 1000u : 0u);

  // Across page 0's end and block 0's end (byte 32768): ten full pages.
  ASSERT_TRUE((*file)->Append(Slice(content.data() + 1000, 40000)).ok());
  EXPECT_EQ((*file)->PersistedSize(), 40960u);
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_EQ((*file)->PersistedSize(), ftl ? 41000u : 40960u);

  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ((*file)->PersistedSize(), 41000u);
  EXPECT_EQ((*file)->Size(), 41000u);
  // Footprint: 11 logical pages, or 2 whole erase blocks.
  EXPECT_EQ(env_->TotalFileBytes(), ftl ? 11u * 4096 : 2u * 8 * 4096);

  auto reader = env_->NewRandomAccessFile("f");
  ASSERT_TRUE(reader.ok());
  std::string out;
  ASSERT_TRUE((*reader)->Read(4000, 33000, &out).ok());
  EXPECT_EQ(out, content.substr(4000, 33000));
  ASSERT_TRUE(env_->DeleteFile("f").ok());
  EXPECT_EQ(env_->TotalFileBytes(), 0u);

  const SsdStats& stats = env_->stats();
  // FTL: partial page 0, page 0 completed in place plus pages 1-9, partial
  // page 10. Native: pages 0-9, then page 10 padded at Close.
  EXPECT_EQ(stats.host_pages_written, ftl ? 12u : 11u);
  EXPECT_EQ(stats.host_pages_read, 10u);  // Pages 0-9 cover [4000, 37000).
  EXPECT_EQ(stats.gc_pages_migrated, 0u);
  // The FTL only trims; native deletion erases both owned blocks.
  EXPECT_EQ(stats.blocks_erased, ftl ? 0u : 2u);
  EXPECT_EQ(clock_.NowMicros(), ftl ? 12u * 200 + 10 * 80
                                    : 11u * 200 + 10 * 80 + 2 * 2000);
}

// A bulk append — the shape a bulk-load run takes — starting mid-page and
// spanning 300 pages across 38 erase blocks. Each page is programmed once,
// in file order, with the bytes appended: 1000 + 300 * 4096 + 500 bytes end
// in a 1500-byte tail.
TEST_P(EnvTest, BulkAppendProgramsEachPageOnce) {
  const bool ftl = GetParam() == InterfaceMode::kPageMappedFtl;
  Random rnd(11);
  const std::string content = rnd.NextString(1000 + 300 * 4096 + 500);
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());

  ASSERT_TRUE((*file)->Append(Slice(content.data(), 1000)).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_EQ((*file)->PersistedSize(), ftl ? 1000u : 0u);

  ASSERT_TRUE(
      (*file)->Append(Slice(content.data() + 1000, content.size() - 1000))
          .ok());
  EXPECT_EQ((*file)->Size(), content.size());
  EXPECT_EQ((*file)->PersistedSize(), 300u * 4096);
  // FTL: synced partial page 0, then page 0 completed plus pages 1-299.
  EXPECT_EQ(env_->stats().host_pages_written, ftl ? 301u : 300u);

  ASSERT_TRUE((*file)->Sync().ok());
  EXPECT_EQ((*file)->PersistedSize(), ftl ? content.size() : 300u * 4096);
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ((*file)->PersistedSize(), content.size());
  EXPECT_EQ(env_->host_bytes_appended(), content.size());
  EXPECT_EQ(env_->TotalFileBytes(), ftl ? 301u * 4096 : 38u * 8 * 4096);

  auto reader = env_->NewRandomAccessFile("f");
  ASSERT_TRUE(reader.ok());
  std::string out;
  ASSERT_TRUE((*reader)->Read(0, content.size(), &out).ok());
  EXPECT_EQ(out, content);
  ASSERT_TRUE(env_->DeleteFile("f").ok());

  const SsdStats& stats = env_->stats();
  // FTL: the big append's 300 pages between two partial-page syncs.
  // Native: pages 0-299, then page 300 padded at Close.
  EXPECT_EQ(stats.host_pages_written, ftl ? 302u : 301u);
  EXPECT_EQ(stats.host_pages_read, 301u);
  EXPECT_EQ(stats.gc_pages_migrated, 0u);
  EXPECT_EQ(stats.blocks_erased, ftl ? 0u : 38u);
  EXPECT_EQ(clock_.NowMicros(), ftl ? 302u * 200 + 301 * 80
                                    : 301u * 200 + 301 * 80 + 38 * 2000);
}

// The device fills in the middle of one append: every page up to capacity
// is programmed and readable, the rest of the append stays buffered, and
// the call reports NoSpace. The file's size counts the whole append.
TEST_P(EnvTest, NoSpaceMidAppendKeepsPlacedPrefix) {
  const bool ftl = GetParam() == InterfaceMode::kPageMappedFtl;
  Random rnd(12);
  const std::string content = rnd.NextString(1000 + 600 * 4096 + 100);
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());

  ASSERT_TRUE((*file)->Append(Slice(content.data(), 1000)).ok());
  ASSERT_TRUE((*file)->Sync().ok());
  const Status s =
      (*file)->Append(Slice(content.data() + 1000, content.size() - 1000));
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();

  // 384 logical pages (FTL) or 64 whole blocks of 8 pages (native).
  const uint64_t capacity_pages = ftl ? 384 : 512;
  ASSERT_EQ(env_->CapacityBytes(), capacity_pages * 4096);
  EXPECT_EQ((*file)->Size(), content.size());
  EXPECT_EQ((*file)->PersistedSize(), capacity_pages * 4096);
  EXPECT_EQ(env_->host_bytes_appended(), content.size());

  auto reader = env_->NewRandomAccessFile("f");
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->Size(), capacity_pages * 4096);
  std::string out;
  ASSERT_TRUE((*reader)->Read(0, content.size(), &out).ok());
  EXPECT_EQ(out, content.substr(0, capacity_pages * 4096));

  const SsdStats& stats = env_->stats();
  // FTL: the synced partial page 0 is completed in place before the
  // logical pages run out; native programs every block once.
  EXPECT_EQ(stats.host_pages_written, capacity_pages + (ftl ? 1 : 0));
  EXPECT_EQ(stats.host_pages_read, capacity_pages);
  EXPECT_EQ(stats.gc_pages_migrated, 0u);
  EXPECT_EQ(stats.blocks_erased, 0u);
  EXPECT_EQ(clock_.NowMicros(),
            (capacity_pages + (ftl ? 1 : 0)) * 200 + capacity_pages * 80);
}

TEST_P(EnvTest, TornAppendKeepsPrefixAndFails) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites not compiled in (DIRECTLOAD_FAILPOINTS)";
  }
  Random rnd(8);
  const std::string content = rnd.NextString(6000);
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(Slice(content.data(), 1000)).ok());
  failpoint::Registry& reg = failpoint::Registry::Instance();
  ASSERT_TRUE(reg.Activate("ssd_file_append", "1*short(100)").ok());
  // The torn append lands its first 100 bytes and reports the failure.
  EXPECT_TRUE((*file)->Append(Slice(content.data() + 1000, 5000)).IsIOError());
  reg.DeactivateAll();
  EXPECT_EQ((*file)->Size(), 1100u);
  EXPECT_EQ(env_->host_bytes_appended(), 1100u);
  ASSERT_TRUE((*file)->Close().ok());

  auto reader = env_->NewRandomAccessFile("f");
  ASSERT_TRUE(reader.ok());
  std::string out;
  ASSERT_TRUE((*reader)->Read(0, content.size(), &out).ok());
  EXPECT_EQ(out, content.substr(0, 1100));
}

TEST_P(EnvTest, ReadCorruptFlipsOneBitOfOneRead) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites not compiled in (DIRECTLOAD_FAILPOINTS)";
  }
  Random rnd(9);
  const std::string content = rnd.NextString(10000);
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(content).ok());
  ASSERT_TRUE((*file)->Close().ok());
  auto reader = env_->NewRandomAccessFile("f");
  ASSERT_TRUE(reader.ok());

  failpoint::Registry& reg = failpoint::Registry::Instance();
  ASSERT_TRUE(reg.Activate("ssd_file_read_corrupt", "1*corrupt").ok());
  std::string out;
  ASSERT_TRUE((*reader)->Read(0, content.size(), &out).ok());
  reg.DeactivateAll();
  ASSERT_EQ(out.size(), content.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    flipped_bits += __builtin_popcount(
        static_cast<unsigned char>(out[i] ^ content[i]));
  }
  EXPECT_EQ(flipped_bits, 1);
  // The damage was in flight: the media still holds the written bytes.
  ASSERT_TRUE((*reader)->Read(0, content.size(), &out).ok());
  EXPECT_EQ(out, content);
}

TEST_P(EnvTest, SimulatedCrashDropsWriterOwnership) {
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(8192, 'x')).ok());
  EXPECT_TRUE(env_->DeleteFile("f").IsBusy());
  env_->SimulateCrashForTesting();
  EXPECT_TRUE(env_->DeleteFile("f").ok());
}

// The hardware-level contrast the paper draws: deleting files on the native
// interface erases blocks without migrating a single page, while the
// page-mapped FTL eventually pays device GC for the same workload.
TEST(EnvContrastTest, NativeDeleteAvoidsDeviceGc) {
  Geometry g = SmallGeometry();
  LatencyModel lat;

  auto churn = [&](SsdEnv* env) {
    Random rnd(5);
    // Write and delete files repeatedly to force space turnover well beyond
    // the device size.
    for (int i = 0; i < 60; ++i) {
      const std::string name = "f" + std::to_string(i);
      auto f = env->NewWritableFile(name);
      ASSERT_TRUE(f.ok());
      ASSERT_TRUE((*f)->Append(rnd.NextString(20 * 4096)).ok());
      ASSERT_TRUE((*f)->Close().ok());
      if (i >= 4) {
        ASSERT_TRUE(env->DeleteFile("f" + std::to_string(i - 4)).ok());
      }
    }
  };

  SimClock c1, c2;
  auto ftl_env = NewSsdEnv(InterfaceMode::kPageMappedFtl, g, lat, &c1);
  auto native_env = NewSsdEnv(InterfaceMode::kNativeBlock, g, lat, &c2);
  churn(ftl_env.get());
  churn(native_env.get());

  EXPECT_EQ(native_env->stats().gc_pages_migrated, 0u);
  EXPECT_DOUBLE_EQ(native_env->stats().write_amplification(), 1.0);
  // Identical host workload on the conventional interface migrates pages.
  EXPECT_GE(ftl_env->stats().write_amplification(), 1.0);
  EXPECT_EQ(ftl_env->stats().host_pages_written,
            native_env->stats().host_pages_written);
}

}  // namespace
}  // namespace directload::ssd
