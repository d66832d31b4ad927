// Event-bus unit tests: typed delivery, multiple subscribers, subscription
// ordering, unsubscribe semantics, and channel isolation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "engine/events.hpp"

namespace witrack::engine {
namespace {

TrackUpdateEvent update_at(double time_s) {
    TrackUpdateEvent event;
    event.time_s = time_s;
    return event;
}

TEST(EventBus, DeliversToSubscriber) {
    EventBus bus;
    std::vector<double> seen;
    bus.subscribe<TrackUpdateEvent>(
        [&](const TrackUpdateEvent& event) { seen.push_back(event.time_s); });

    bus.publish(update_at(1.0));
    bus.publish(update_at(2.0));
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], 1.0);
    EXPECT_EQ(seen[1], 2.0);
}

TEST(EventBus, AllSubscribersReceiveEveryEvent) {
    EventBus bus;
    int a = 0, b = 0, c = 0;
    bus.subscribe<FallEvent>([&](const FallEvent&) { ++a; });
    bus.subscribe<FallEvent>([&](const FallEvent&) { ++b; });
    bus.subscribe<FallEvent>([&](const FallEvent&) { ++c; });
    EXPECT_EQ(bus.subscriber_count<FallEvent>(), 3u);

    bus.publish(FallEvent{});
    bus.publish(FallEvent{});
    EXPECT_EQ(a, 2);
    EXPECT_EQ(b, 2);
    EXPECT_EQ(c, 2);
}

TEST(EventBus, DeliveryFollowsSubscriptionOrder) {
    EventBus bus;
    std::string order;
    bus.subscribe<PointingEvent>([&](const PointingEvent&) { order += 'a'; });
    bus.subscribe<PointingEvent>([&](const PointingEvent&) { order += 'b'; });
    bus.subscribe<PointingEvent>([&](const PointingEvent&) { order += 'c'; });

    bus.publish(PointingEvent{});
    EXPECT_EQ(order, "abc");
    bus.publish(PointingEvent{});
    EXPECT_EQ(order, "abcabc");
}

TEST(EventBus, UnsubscribeStopsDelivery) {
    EventBus bus;
    int kept = 0, removed = 0;
    bus.subscribe<PersonsEvent>([&](const PersonsEvent&) { ++kept; });
    const auto id =
        bus.subscribe<PersonsEvent>([&](const PersonsEvent&) { ++removed; });

    bus.publish(PersonsEvent{});
    EXPECT_TRUE(bus.unsubscribe<PersonsEvent>(id));
    bus.publish(PersonsEvent{});

    EXPECT_EQ(kept, 2);
    EXPECT_EQ(removed, 1);
    EXPECT_EQ(bus.subscriber_count<PersonsEvent>(), 1u);

    // A token can only be spent once; unknown tokens are rejected.
    EXPECT_FALSE(bus.unsubscribe<PersonsEvent>(id));
    EXPECT_FALSE(bus.unsubscribe<PersonsEvent>(987654u));
}

TEST(EventBus, ChannelsAreIsolatedByType) {
    EventBus bus;
    int track_updates = 0, falls = 0;
    bus.subscribe<TrackUpdateEvent>([&](const TrackUpdateEvent&) { ++track_updates; });
    bus.subscribe<FallEvent>([&](const FallEvent&) { ++falls; });

    bus.publish(update_at(0.5));
    EXPECT_EQ(track_updates, 1);
    EXPECT_EQ(falls, 0);

    bus.publish(FallEvent{});
    EXPECT_EQ(track_updates, 1);
    EXPECT_EQ(falls, 1);

    // Tokens are per-channel: a TrackUpdate token does not unsubscribe falls.
    const auto fall_id = bus.subscribe<FallEvent>([](const FallEvent&) {});
    EXPECT_FALSE(bus.unsubscribe<TrackUpdateEvent>(fall_id));
    EXPECT_TRUE(bus.unsubscribe<FallEvent>(fall_id));
}

TEST(EventBus, EventCarriesPayload) {
    EventBus bus;
    std::optional<core::TrackPoint> received;
    bus.subscribe<TrackUpdateEvent>([&](const TrackUpdateEvent& event) {
        received = event.smoothed;
    });

    TrackUpdateEvent event = update_at(3.25);
    core::TrackPoint point;
    point.time_s = 3.25;
    point.position = {1.0, 5.0, 1.2};
    event.smoothed = point;
    bus.publish(event);

    ASSERT_TRUE(received.has_value());
    EXPECT_EQ(received->position.x, 1.0);
    EXPECT_EQ(received->position.y, 5.0);
    EXPECT_EQ(received->position.z, 1.2);
}

}  // namespace
}  // namespace witrack::engine
